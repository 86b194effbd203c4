"""The benchmark's two workloads and the probe that measures commits.

Each workload drives the public API of ``repro`` in one thread:

* ``fleet-carry`` — the ``fleet-saturation`` scenario with 400 open-loop
  clients sending 1,200 permanent logins.  Every summary block re-carries
  every living login, so carry-forward dominates.
* ``durable-erasure`` — no network: a :class:`LocalLedgerClient` drives a
  chain on the write-ahead journal with a GDPR erasure stream, compacts the
  journal every 250 blocks and reopens it at the end.  The only workload
  that exercises the storage layer.

A workload is split into :meth:`generate` (inputs from the seed, part of
set-up), :meth:`execute` (the timed phase) and :meth:`verify` (the
correctness checks, untimed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.core.chain import Blockchain
from repro.core.config import ChainConfig
from repro.core.errors import SelectiveDeletionError
from repro.network.scenarios import run_scenario
from repro.service.client import LocalLedgerClient
from repro.storage.wal import JournalBlockStore
from repro.workloads.gdpr import GdprErasureWorkload

from spans import Patcher


def _stable_json(value: Any) -> str:
    # Stdlib encoding, so the benchmark's own checks never show up in the
    # library's traced canonical-JSON spans.
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def _entry_key(author: str, data: Any) -> str:
    return author + "\x00" + _stable_json(data)


@dataclass
class Probe:
    """Always-on measurement hooks around the chain's commit calls.

    Every ``Blockchain.seal_block`` and ``receive_block`` call is timed
    (producer and replicas alike); the chains seen are kept for the checks;
    the producer's living ``byte_size()`` is sampled after every seal; and the
    payload of every approved deletion request is kept for the checks.
    With ``count_summaries`` the summary blocks' carried and dropped entries
    are counted too (traced runs only).
    """

    count_summaries: bool = False
    commit_ns: list[int] = field(default_factory=list)
    nested_commits: int = 0
    chains: dict[int, Blockchain] = field(default_factory=dict)
    producers: dict[int, Blockchain] = field(default_factory=dict)
    chain_bytes: list[int] = field(default_factory=list)
    erased: dict[str, Any] = field(default_factory=dict)
    summary_carried: int = 0
    summary_dropped: int = 0
    _depth: int = 0

    def install(self, patcher: Patcher) -> None:
        patcher.method(Blockchain, "seal_block", self._timed_commit(producer=True))
        patcher.method(Blockchain, "receive_block", self._timed_commit(producer=False))
        patcher.method(Blockchain, "submit_signed_entry", self._record_erasure(signed=True))
        patcher.method(Blockchain, "request_deletion", self._record_erasure(signed=False))
        if self.count_summaries:
            from repro.core.summarizer import Summarizer

            patcher.method(Summarizer, "build_summary_block", self._count_summary)

    def _timed_commit(self, *, producer: bool):
        probe = self
        clock = time.perf_counter_ns

        def make(original):
            def commit(chain: Blockchain, *args: Any, **kwargs: Any) -> Any:
                if probe._depth:
                    probe.nested_commits += 1
                probe._depth += 1
                start = clock()
                try:
                    return original(chain, *args, **kwargs)
                finally:
                    elapsed = clock() - start
                    probe._depth -= 1
                    if not probe._depth:
                        probe.commit_ns.append(elapsed)
                    probe.chains.setdefault(id(chain), chain)
                    if producer:
                        probe.producers.setdefault(id(chain), chain)
                        probe.chain_bytes.append(chain.byte_size())

            return commit

        return make

    def _record_erasure(self, *, signed: bool):
        probe = self

        def make(original):
            def record(chain: Blockchain, *args: Any, **kwargs: Any) -> Any:
                if signed:
                    entry = args[0]
                    if not entry.is_deletion_request:
                        return original(chain, *args, **kwargs)
                    reference = entry.deletion_target()
                else:
                    reference = args[0]
                located = chain.find_entry(reference)
                decision = original(chain, *args, **kwargs)
                if located is not None and decision.is_approved:
                    target = located[1]
                    probe.erased[_entry_key(target.author, target.data)] = target.data
                return decision

            return record

        return make

    def _count_summary(self, original):
        probe = self

        def count(summarizer: Any, *args: Any, **kwargs: Any) -> Any:
            result = original(summarizer, *args, **kwargs)
            probe.summary_carried += len(result.carried_entries)
            probe.summary_dropped += len(result.dropped_entries)
            return result

        return count

    def deletion_statistics(self) -> dict[str, int]:
        """Deletion requests as the producing chains' registries saw them."""
        totals = {"requests": 0, "rejected": 0, "executed": 0}
        for chain in self.producers.values():
            statistics = chain.registry.statistics()
            for key in totals:
                totals[key] += statistics[key]
        return totals


@dataclass
class RepResult:
    """What one execution of a workload produced, after its checks."""

    entries: int
    attempted: int
    failed: int
    checks: dict[str, bool]
    digest: str
    #: Deterministic per-layer counters read from the program's own reports.
    counters: dict[str, float]


def _intact(chain: Blockchain) -> bool:
    """``validate()`` and ``verify_index()`` pass; the reason goes to stderr."""
    try:
        chain.validate()
        chain.verify_index()
    except SelectiveDeletionError as error:
        print(f"perfbench: chain check failed: {error}", file=sys.stderr)
        return False
    return True


def _chain_checks(probe: Probe, expected_chains: int) -> dict[str, bool]:
    """Every chain is intact, and no erased payload lives in any of them."""
    valid = len(probe.chains) == expected_chains and all(
        [_intact(chain) for chain in probe.chains.values()]
    )
    erased_present = any(
        _entry_key(entry.author, entry.data) in probe.erased
        for chain in probe.chains.values()
        for _, entry in chain.iter_entries()
    )
    return {"chains_valid": valid, "erased_absent_from_chains": not erased_present}


def _network_counters(report: dict[str, Any]) -> dict[str, float]:
    transport = report["transport"]
    return {
        "network.kernel.events": report["kernel"]["events_processed"],
        "network.transport.messages": transport["delivered"] + transport["dropped"],
        "network.transport.bytes": transport["bytes_transferred"],
        "network.transport.lost": transport["lost"],
    }


def _digest(value: Any) -> str:
    return hashlib.sha256(_stable_json(value).encode("utf-8")).hexdigest()


class FleetCarry:
    """Open-loop login fleet; every summary re-carries every login.

    The ``fleet-saturation`` scenario with fixed parameters; the seed is the
    input.
    """

    name = "fleet-carry"
    scenario = "fleet-saturation"
    params = {"anchors": 3, "n_clients": 400, "events_per_client": 3, "mean_gap_ms": 6000.0}
    smoke_params = {"anchors": 3, "n_clients": 20, "events_per_client": 3, "mean_gap_ms": 600.0}

    def generate(self, seed: int, *, smoke: bool) -> dict[str, Any]:
        return {"seed": seed, "params": dict(self.smoke_params if smoke else self.params)}

    def execute(self, inputs: dict[str, Any], workdir: Path) -> Any:
        return run_scenario(self.scenario, seed=inputs["seed"], **inputs["params"])

    def verify(self, inputs: dict[str, Any], state: Any, probe: Probe) -> RepResult:
        params = inputs["params"]
        report = state["report"]
        fleet = report["workloads"]["login-audit"]
        expected = params["n_clients"] * params["events_per_client"]
        clients = fleet["clients"].values()
        submitted = sum(client["entries_submitted"] for client in clients)
        rejected = sum(client["entries_rejected"] for client in clients)
        checks = {
            "replicas_identical": bool(state["replicas_identical"]),
            "entry_count": submitted == expected and fleet["executed"] == expected,
            "nothing_shed": fleet["shed"] == 0,
            **_chain_checks(probe, params["anchors"]),
        }
        counters = _network_counters(report)
        counters["workloads.fleet.shed"] = fleet["shed"]
        return RepResult(
            entries=submitted - rejected,
            attempted=expected,
            failed=fleet["shed"] + rejected + (expected - fleet["executed"]),
            checks=checks,
            digest=_digest(state),
            counters=counters,
        )


@dataclass
class JournalRun:
    """State a durable-erasure execution leaves for its checks."""

    chain: Blockchain
    reopened: Blockchain
    journal: Path
    records: int
    erasures: int
    bytes_written: int
    space_amp: float
    reopen_ms: float


class DurableErasure:
    """GDPR erasure stream on the write-ahead journal, no network."""

    name = "durable-erasure"
    params = {"records": 1500, "subjects": 200, "erasure_probability": 0.6,
              "min_delay": 3, "max_delay": 40}
    smoke_params = {"records": 60, "subjects": 12, "erasure_probability": 0.6,
                    "min_delay": 3, "max_delay": 40}
    #: Blocks between journal compactions.
    compact_every = 250
    #: Clock ticks per idle tick; also the chain's empty-block interval.
    idle_ticks = 5
    #: Idle ticks allowed to drain pending erasures after the stream.
    max_idle_ticks = 200

    def generate(self, seed: int, *, smoke: bool) -> dict[str, Any]:
        params = self.smoke_params if smoke else self.params
        workload = GdprErasureWorkload(
            num_records=params["records"],
            num_subjects=params["subjects"],
            erasure_probability=params["erasure_probability"],
            min_delay=params["min_delay"],
            max_delay=params["max_delay"],
            seed=seed,
        )
        cases = workload.cases()
        schedule = workload.erasure_schedule()
        operations: list[tuple[str, int, str, Optional[dict]]] = []
        for position, case in enumerate(cases):
            operations.append((
                "submit",
                case.record_index,
                case.subject,
                {
                    "D": f"personal data of {case.subject} (record {case.record_index})",
                    "K": case.subject,
                    "S": f"sig_{case.subject}",
                    "record_index": case.record_index,
                },
            ))
            for due in schedule.get(position, []):
                operations.append(("erase", due, cases[due].subject, None))
        # Erasures due after the stream ended: the subjects come back later.
        for position in sorted(schedule):
            if position >= len(cases):
                for due in schedule[position]:
                    operations.append(("erase", due, cases[due].subject, None))
        return {"operations": operations, "records": len(cases)}

    def execute(self, inputs: dict[str, Any], workdir: Path) -> JournalRun:
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        journal = workdir / "chain.journal"
        config = dataclasses.replace(
            ChainConfig.paper_evaluation(), empty_block_interval=self.idle_ticks
        )
        store = JournalBlockStore(journal)
        chain = Blockchain(config, store=store)
        client = LocalLedgerClient(chain)
        references: dict[int, Any] = {}
        compacted_at = 0
        after_last_compaction = 0
        bytes_written = 0
        space_ratios: list[float] = []

        def compact() -> None:
            nonlocal bytes_written, after_last_compaction, compacted_at
            size = store.file_size()
            bytes_written += size - after_last_compaction
            space_ratios.append(size / chain.byte_size())
            store.compact()
            after_last_compaction = store.file_size()
            bytes_written += after_last_compaction
            compacted_at = chain.total_blocks_created

        erasures = 0
        for kind, record_index, subject, data in inputs["operations"]:
            if kind == "submit":
                receipt = client.submit(data, subject)
                if receipt.ok and receipt.sealed:
                    references[record_index] = receipt.reference
            else:
                client.request_deletion(references[record_index], subject)
                erasures += 1
            if chain.total_blocks_created - compacted_at >= self.compact_every:
                compact()
        registry = chain.registry
        for _ in range(self.max_idle_ticks):
            if registry.executed_count >= registry.approved_count:
                break
            client.tick(self.idle_ticks)
        compact()
        start = time.perf_counter()
        reopened = Blockchain(config, store=JournalBlockStore(journal))
        reopen_ms = (time.perf_counter() - start) * 1000.0
        return JournalRun(
            chain=chain,
            reopened=reopened,
            journal=journal,
            records=len(references),
            erasures=erasures,
            bytes_written=bytes_written,
            space_amp=sum(space_ratios) / len(space_ratios),
            reopen_ms=reopen_ms,
        )

    def verify(self, inputs: dict[str, Any], state: JournalRun, probe: Probe) -> RepResult:
        statistics = state.chain.registry.statistics()
        journal_text = state.journal.read_text(encoding="utf-8")
        erased_in_journal = any(
            json.dumps(data["D"]) in journal_text for data in probe.erased.values()
        )
        unexecuted = statistics["approved"] - statistics["executed"]
        checks = {
            "entry_count": state.records == inputs["records"]
            and probe.deletion_statistics()["requests"] == state.erasures
            and len(probe.erased) == statistics["approved"],
            "approved_erasures_executed": statistics["rejected"] == 0 and unexecuted == 0,
            "erased_absent_from_journal": not erased_in_journal,
            "reopened_head_matches": state.reopened.head.block_hash
            == state.chain.head.block_hash,
            "reopened_valid": _intact(state.reopened),
            **_chain_checks(probe, 1),
        }
        payload_bytes = sum(
            len(_stable_json(data))
            for kind, _, _, data in inputs["operations"]
            if kind == "submit"
        )
        return RepResult(
            entries=state.records,
            attempted=inputs["records"] + state.erasures,
            failed=inputs["records"] - state.records + statistics["rejected"] + unexecuted,
            checks=checks,
            digest=_digest(
                {
                    "head": state.chain.head.block_hash,
                    "statistics": state.chain.statistics(),
                    "journal": hashlib.sha256(journal_text.encode("utf-8")).hexdigest(),
                    "bytes_written": state.bytes_written,
                }
            ),
            counters={
                "storage.reopen_ms": state.reopen_ms,
                "storage.bytes_written": state.bytes_written,
                "storage.write_amp": state.bytes_written / payload_bytes,
                "storage.space_amp": state.space_amp,
            },
        )


WORKLOADS = {load.name: load for load in (FleetCarry(), DurableErasure())}
