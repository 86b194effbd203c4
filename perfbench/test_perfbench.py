"""Self-tests of the wall-clock benchmark (run with ``PYTHONPATH=src``)."""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from child import run_once
from loads import WORKLOADS
from spans import SpanRecorder, percentile, self_times

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("size", [2, 3, 7, 100, 2307])
def test_percentile_matches_statistics_quantiles(size):
    rng = random.Random(size)
    values = sorted(rng.expovariate(1.0) for _ in range(size))
    oracle = statistics.quantiles(values, n=100, method="inclusive")
    for cut in range(1, 100):
        assert percentile(values, cut / 100) == pytest.approx(oracle[cut - 1], rel=1e-12)
    assert percentile(values, 0.0) == values[0]
    assert percentile(values, 1.0) == values[-1]


def test_self_time_subtracts_the_union_of_children():
    # root [0, 100] holds a [10, 40] (which holds g [20, 30]), then b [50, 60]
    # and c [55, 70] that overlap each other, and d [95, 120] that overruns it.
    starts = [0, 10, 20, 50, 55, 95]
    ends = [100, 40, 30, 60, 70, 120]
    parents = [-1, 0, 1, 0, 0, 0]
    assert self_times(starts, ends, parents) == [100 - 30 - 20 - 5, 20, 10, 10, 15, 25]


def test_recorder_nests_spans_and_totals_self_time():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: sum(range(1000)))
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert list(recorder.parents) == [-1, 0, 0, 0]
    totals = recorder.totals()
    assert totals["outer"]["calls"] == 1 and totals["inner"]["calls"] == 3
    assert totals["outer"]["self_ms"] == pytest.approx(
        totals["outer"]["total_ms"] - totals["inner"]["total_ms"]
    )


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check_and_repeats(name, seed, tmp_path):
    load = WORKLOADS[name]
    inputs = load.generate(seed, smoke=True) | {"seed": seed, "smoke": True}
    first = run_once(load, inputs, tmp_path / "first", trace=False)
    second = run_once(load, inputs, tmp_path / "second", trace=True)
    assert all(first["checks"].values()), first["checks"]
    assert all(second["checks"].values()), second["checks"]
    assert first["digest"] == second["digest"]
    assert first["failed"] == 0 and first["attempted"] > 0
    assert second["layers"]["core.seal.calls"] > 0


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_workloads_are_the_implemented_ones():
    assert [row["name"] for row in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cli_emits_exactly_the_declared_metrics(name, trace):
    completed = _run_cli(HERE.parent, "--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", trace, "--smoke")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {name: row["unit"] for name, row in result["metrics"].items()} == {
        row["name"]: row["unit"] for row in declared
    }


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run_cli(tmp_path, "--workload", "fleet-carry", "--seed", "7",
                         "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert completed.stdout == ""
