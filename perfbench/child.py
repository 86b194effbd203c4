"""One benchmark run in one process: set-up, the timed phase, the checks.

``run.py`` starts this file once per run (and a few more times with
``--mode setup`` to sample set-up time).  The process pins itself to one
CPU, performs one smoke-size warm-up run and generates its three inputs
from the seed; with the imports before it, that is set-up.  The timed
phase then repeats the workload over those inputs until ``--seconds`` have
passed, checking every repetition, and the process prints one JSON object
as its last line.

``--mode trace`` alternates untraced and traced repetitions and reports the
per-layer metrics instead; the spans of the last traced repetition are
written to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any

from loads import WORKLOADS, Probe, RepResult
from spans import Patcher, SpanRecorder, aslr_disabled, install_trace, median, percentile

#: Iterations of the stdlib-only calibration loop (about 0.1 s).
CALIBRATION_ITERATIONS = 1_000_000
#: Inputs per run.  Each is generated from its own seed derived from
#: ``--seed``, and the repetitions cycle through them, so one run averages
#: over several inputs instead of riding on one draw.
SUB_SEEDS = 3


def pin_to_one_cpu() -> int:
    """Pin this process to the highest CPU it may run on; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibrate() -> float:
    """Seconds taken by a fixed stdlib-only loop: a host-noise diagnostic.

    Reported beside the metrics and never used to normalise them.
    """
    start = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_ITERATIONS):
        total += value * value % 7
    return time.perf_counter() - start


def run_once(load: Any, inputs: Any, workdir: Path, *, trace: bool) -> dict[str, Any]:
    """One timed repetition of the workload, then its checks.

    Traced repetitions regenerate the inputs under the trace (untimed) so
    the generators' spans are recorded.
    """
    gc.collect()
    probe = Probe(count_summaries=trace)
    recorder = SpanRecorder() if trace else None
    with Patcher() as patcher:
        probe.install(patcher)
        if recorder is not None:
            install_trace(patcher, recorder)
            inputs = load.generate(inputs["seed"], smoke=inputs["smoke"]) | {
                "seed": inputs["seed"], "smoke": inputs["smoke"]
            }
        start = time.perf_counter()
        state = load.execute(inputs, workdir)
        wall = time.perf_counter() - start
    result = load.verify(inputs, state, probe)
    commits = sorted(probe.commit_ns)
    rep = {
        "seed": inputs["seed"],
        "wall_s": wall,
        "entries": result.entries,
        "attempted": result.attempted,
        "failed": result.failed,
        "checks": dict(result.checks, no_nested_commits=probe.nested_commits == 0),
        "digest": result.digest,
        "chain_bytes": sum(probe.chain_bytes) / len(probe.chain_bytes),
        "peak_chain_bytes": max(probe.chain_bytes),
        "commits": len(commits),
        "commit_ns": commits,
        "commit_ms_p50": percentile(commits, 0.50) / 1e6,
        "commit_ms_p99": percentile(commits, 0.99) / 1e6,
        "counters": result.counters,
    }
    if recorder is not None:
        rep["layers"] = layer_metrics(recorder, probe, result)
        rep["recorder"] = recorder
    return rep


def is_exact(metric: str) -> bool:
    """Per-layer metrics other than times are counts or ratios of counts,
    which must repeat exactly."""
    return not metric.endswith("_ms")


def layer_metrics(recorder: SpanRecorder, probe: Probe, result: RepResult) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    totals = recorder.totals()

    def span(name: str, column: str) -> float:
        return totals.get(name, {}).get(column, 0)

    deletions = probe.deletion_statistics()
    counters = result.counters
    metrics: dict[str, float] = {}
    for name in ("core.seal", "core.receive", "core.summary", "crypto.canonical",
                 "crypto.block_hash", "storage.append", "storage.compact",
                 "service.submit", "service.erasure"):
        metrics[f"{name}.calls"] = span(name, "calls")
        metrics[f"{name}.self_ms"] = span(name, "self_ms")
    metrics.update({
        "core.summary.collect_ms": span("core.summary.collect", "total_ms"),
        "core.summary.carried": probe.summary_carried,
        "core.summary.dropped": probe.summary_dropped,
        "core.summary.carried_per_entry": probe.summary_carried / result.entries,
        "core.index.append_ms": span("core.index.append", "total_ms"),
        "core.index.cut_ms": span("core.index.cut", "total_ms"),
        "core.deletion.requested": deletions["requests"],
        "core.deletion.rejected": deletions["rejected"],
        "core.deletion.executed": deletions["executed"],
        "crypto.sign.calls": span("crypto.sign", "calls"),
        "crypto.verify.calls": span("crypto.verify", "calls"),
        "storage.truncate.self_ms": span("storage.truncate", "self_ms"),
        "storage.reopen_ms": counters.get("storage.reopen_ms", 0.0),
        "storage.bytes_written": counters.get("storage.bytes_written", 0),
        "storage.write_amp": counters.get("storage.write_amp", 0.0),
        "storage.space_amp": counters.get("storage.space_amp", 0.0),
        "network.kernel.events": counters.get("network.kernel.events", 0),
        "network.kernel.self_ms": span("network.kernel", "self_ms"),
        "network.transport.messages": counters.get("network.transport.messages", 0),
        "network.transport.bytes": counters.get("network.transport.bytes", 0),
        "network.transport.lost": counters.get("network.transport.lost", 0),
        "network.transport.self_ms": span("network.transport", "self_ms"),
        "network.msgs_per_entry": counters.get("network.transport.messages", 0)
        / result.entries,
        "service.failed": result.failed,
        "workloads.generate_ms": span("workloads.generate", "total_ms"),
        "workloads.fleet.self_ms": span("workloads.fleet", "self_ms"),
        "workloads.fleet.shed": counters.get("workloads.fleet.shed", 0),
    })
    return metrics


def sub_seeds(seed: int) -> list[int]:
    """The input seeds one run cycles through, derived from ``--seed``."""
    return [seed * SUB_SEEDS + index for index in range(SUB_SEEDS)]


def per_input(reps: list[dict[str, Any]], column: str) -> float:
    """The median of ``column`` over each input's repetitions, averaged over
    the inputs, so every input weighs the same."""
    groups: dict[int, list[float]] = {}
    for rep in reps:
        groups.setdefault(rep["seed"], []).append(rep[column])
    return sum(median(values) for values in groups.values()) / len(groups)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--started-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before it started this process")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    cpu = pin_to_one_cpu()
    load = WORKLOADS[args.workload]
    warmup_inputs = load.generate(args.seed, smoke=True) | {"seed": args.seed, "smoke": True}
    warmup = run_once(load, warmup_inputs, args.workdir / "warmup", trace=False)
    inputs = [
        load.generate(seed, smoke=args.smoke) | {"seed": seed, "smoke": args.smoke}
        for seed in sub_seeds(args.seed)
    ]
    gc.collect()
    setup_s = (time.monotonic_ns() - args.started_ns) / 1e9
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    calibration = [calibrate()]
    reps: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    start = time.perf_counter()
    while len(reps) < SUB_SEEDS or time.perf_counter() - start < args.seconds:
        current = inputs[len(reps) % SUB_SEEDS]
        reps.append(run_once(load, current, args.workdir / "run", trace=False))
        if args.mode == "trace":
            if traced:
                del traced[-1]["recorder"]  # only the last traced rep's spans are kept
            traced.append(run_once(load, current, args.workdir / "run", trace=True))
    calibration.append(calibrate())

    # One repetition per input carries the input's exact results; every
    # other repetition of that input must reproduce them.
    firsts: dict[int, dict[str, Any]] = {}
    for rep in reps:
        firsts.setdefault(rep["seed"], rep)
    checks = {f"warmup.{name}": ok for name, ok in warmup["checks"].items()}
    for rep in reps + traced:
        for name, ok in rep["checks"].items():
            checks[name] = checks.get(name, True) and ok
    for column in ("digest", "chain_bytes", "peak_chain_bytes", "entries", "attempted",
                   "failed", "commits"):
        checks[f"repeats.{column}"] = all(
            rep[column] == firsts[rep["seed"]][column] for rep in reps + traced
        )
    attempted = sum(rep["attempted"] for rep in firsts.values())
    failed = sum(rep["failed"] for rep in firsts.values())

    result: dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "diagnostics": {
            "cpu": cpu,
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "aslr_disabled": aslr_disabled(),
            "calibration_s": calibration,
            "input_seeds": sorted(firsts),
            "reps": len(reps),
            "rep_wall_s": [rep["wall_s"] for rep in reps],
            "rep_commit_ms_p50": [rep["commit_ms_p50"] for rep in reps],
            "rep_commit_ms_p99": [rep["commit_ms_p99"] for rep in reps],
            "commit_samples": [rep["commits"] for rep in firsts.values()],
            "samples_beyond_p99": [
                rep["commits"] - int(0.99 * (rep["commits"] - 1)) - 1 for rep in firsts.values()
            ],
            "peak_chain_bytes": max(rep["peak_chain_bytes"] for rep in firsts.values()),
            "digests": [rep["digest"] for rep in firsts.values()],
            "workdir": str(args.workdir),
        },
    }
    if args.mode == "measure":
        # Whole-run aggregates: the host's speed drifts in phases of seconds
        # to minutes, and totals over the run average those phases better
        # than a median of per-repetition values does.
        commits = sorted(ns for rep in reps for ns in rep["commit_ns"])
        result["diagnostics"]["commit_samples_pooled"] = len(commits)
        result["metrics"] = {
            "setup_s": setup_s,
            "entries_per_s": sum(rep["entries"] for rep in reps)
            / sum(rep["wall_s"] for rep in reps),
            "commit_ms_p50": percentile(commits, 0.50) / 1e6,
            "commit_ms_p99": percentile(commits, 0.99) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "chain_bytes": per_input(reps, "chain_bytes"),
            "success_frac": 1.0 - failed / attempted,
        }
    else:
        traced_firsts: dict[int, dict[str, Any]] = {}
        for rep in traced:
            rep.update(rep["layers"])
            traced_firsts.setdefault(rep["seed"], rep)
        metrics = {}
        for name in traced[0]["layers"]:
            if is_exact(name):
                checks[f"repeats.{name}"] = all(
                    rep[name] == traced_firsts[rep["seed"]][name] for rep in traced
                )
            metrics[name] = per_input(traced, name)
        metrics["trace.overhead_frac"] = (
            median(rep["wall_s"] for rep in traced) / median(rep["wall_s"] for rep in reps) - 1.0
        )
        result["metrics"] = metrics
        result["diagnostics"]["spans"] = len(traced[-1]["recorder"])
        if args.spans is not None:
            traced[-1]["recorder"].dump(args.spans)
    result["checks"] = checks
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
