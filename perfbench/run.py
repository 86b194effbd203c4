"""Wall-clock benchmark of the selective-deletion chain.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-carry --seed 7 --seconds 55 --trace 0

Workloads: ``fleet-carry`` and ``durable-erasure`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard
output is one JSON object carrying the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  The line
before it holds diagnostics (host-noise calibration, sample counts, the
result digest, every check).  The exit code is 0 only when every
correctness check passed.

Each run is one child process (``child.py``) with a fixed
``PYTHONHASHSEED`` and address-space randomisation off, pinned to one CPU.  Set-up time is sampled in that
child and in ``SETUP_SAMPLES - 1`` set-up-only children started first, and
the median is reported.  Scratch files (the journal, the span dump) live
under ``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from spans import disable_aslr, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-carry", "durable-erasure")
#: Set-up time samples per run (the measuring child plus set-up-only children).
SETUP_SAMPLES = 5
#: A run must end within this many seconds of starting.
DEADLINE_S = 170.0
HASH_SEED = "0"


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def start_child(mode: str, args: argparse.Namespace, workdir: Path, timeout: float,
                extra: tuple[str, ...] = ()) -> Optional[dict[str, Any]]:
    """Run ``child.py`` to completion; its last stdout line, parsed, or None."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), str(HERE), env.get("PYTHONPATH", "")) if part
    )
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--workdir", str(workdir), *extra,
    ]
    if args.smoke:
        command.append("--smoke")
    command += ["--started-ns", str(time.monotonic_ns())]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True,
            preexec_fn=disable_aslr,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        print(f"perfbench: {mode} child exited with {completed.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: {mode} child printed no result", file=sys.stderr)
        return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Wall-clock benchmark of the selective-deletion chain.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-size inputs (for the benchmark's self-tests)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1", 2)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no library source under {ROOT / 'src'}; run from a full checkout", 2)
    try:
        units = load_units()
    except (OSError, ValueError, KeyError) as error:
        return fail(f"cannot read BENCHMARK.json: {error}", 2)

    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    try:
        setup_samples: list[float] = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = start_child("setup", args, workdir, remaining())
                if probe is None:
                    return 1
                setup_samples.append(probe["setup_s"])
        spans = ROOT / ".perfbench_work" / "spans" / f"{args.workload}-seed{args.seed}.spans"
        result = start_child(
            "trace" if args.trace else "measure", args, workdir, remaining(),
            ("--spans", str(spans)) if args.trace else (),
        )
        if result is None:
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        setup_samples.append(metrics["setup_s"])
        metrics["setup_s"] = median(setup_samples)
        result["diagnostics"]["setup_samples_s"] = setup_samples
    correct = all(result["checks"].values())
    if not args.trace:
        metrics["checks_ok"] = 1 if correct else 0
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "diagnostics": result["diagnostics"], "checks": result["checks"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def load_units() -> dict[str, str]:
    """Metric units, as declared in ``BENCHMARK.json``."""
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {row["name"]: row["unit"] for row in declared["end_to_end"] + declared["per_layer"]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
