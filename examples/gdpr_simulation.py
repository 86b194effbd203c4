#!/usr/bin/env python3
"""GDPR erasure as a *network simulation*: the ``gdpr-erasure`` scenario.

``examples/gdpr_erasure.py`` replays the Art. 17 workload synchronously
against an in-process chain.  This example runs the same workload through
the scenario's workload driver instead: records arrive on a seeded virtual
timeline, travel to a replicated three-anchor deployment over a latency-
bearing transport, and erasure requests trail the stream — so the deletion
latency reported here is measured in *virtual milliseconds* between the
request and the marker shift that physically cut the record off.

Run with::

    python examples/gdpr_simulation.py
"""

import json

from repro.network.scenarios import run_scenario


def main() -> None:
    # A faster and a slower arrival rate of the same workload — the latency
    # axis of BENCH_workloads.json in miniature.
    runs = {}
    for label, mean_gap_ms in (("fast arrivals", 20.0), ("slow arrivals", 80.0)):
        runs[label] = run_scenario("gdpr-erasure", seed=11, mean_gap_ms=mean_gap_ms)

    print("GDPR right-to-erasure on the simulated anchor deployment")
    print("--------------------------------------------------------")
    for label, result in runs.items():
        # One closed-loop client: its counters are fleet client 0's.
        workload = result["report"]["workloads"]["gdpr-erasure"]["clients"]["client-0"]
        latency = workload["deletion_latency_ms"]
        chain = result["report"]["final_chain_statistics"]
        print(f"{label} (mean gap {result['parameters']['mean_gap_ms']} ms):")
        print(f"  records submitted:          {workload['entries_submitted']}")
        print(
            f"  erasures requested/executed: "
            f"{workload['deletions_requested']}/{workload['deletions_executed']}"
        )
        print(
            f"  deletion latency (virtual):  mean {latency['mean']:.1f} ms, "
            f"max {latency['max']:.1f} ms over {latency['count']} erasures"
        )
        print(
            f"  chain: {chain['living_blocks']} living of "
            f"{chain['total_blocks_created']} created blocks"
        )
        print(f"  replicas identical:          {result['replicas_identical']}")
        print()

        # The claims the scenario is about, asserted so CI catches drift:
        # every erasure executed, the quorum converged, and the chain
        # stayed bounded.
        assert result["replicas_identical"] is True
        assert workload["deletions_executed"] > 0
        assert workload["deletions_pending"] == 0
        assert chain["living_blocks"] < chain["total_blocks_created"] / 10

    fast = runs["fast arrivals"]["report"]["workloads"]["gdpr-erasure"]["clients"]["client-0"]
    slow = runs["slow arrivals"]["report"]["workloads"]["gdpr-erasure"]["clients"]["client-0"]
    assert fast["deletion_latency_ms"]["mean"] <= slow["deletion_latency_ms"]["mean"]
    print("slower arrivals -> longer virtual-time deletion latency "
          "(the block-count bound is constant; blocks just take longer).")

    print()
    print("Reproduce one run from the command line:")
    print("  python -m repro simulate --scenario gdpr-erasure --seed 11 "
          "--param mean_gap_ms=20.0")
    print("Determinism check (two runs, byte-identical):")
    print("  python -m repro simulate --scenario gdpr-erasure --check-determinism > /dev/null")

    # The full result is plain JSON — handy for piping into jq or plots.
    digest = {
        "scenario": runs["fast arrivals"]["scenario"],
        "seed": runs["fast arrivals"]["seed"],
        "erasures_due": runs["fast arrivals"]["erasures_due"],
        "traffic_completed_at_ms": runs["fast arrivals"]["traffic_completed_at_ms"],
    }
    print()
    print(json.dumps(digest, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
