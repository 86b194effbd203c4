"""Span recording, self-time arithmetic, percentiles and process controls.

Spans are recorded from the benchmark's own files: :class:`Patcher` swaps a
public entry point of the library (a class method or a module function) for
a wrapper that opens a span around the original call, and puts the original
back afterwards.  The library itself carries no tracing code.

A span is ``(name, start, end, parent)``.  All spans live in flat arrays in
memory while the workload runs and are written out once, at the end, by
:meth:`SpanRecorder.dump`.  A span's *self time* is its duration minus the
part of its interval covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import json
import math
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of already sorted values.

    Equal to ``statistics.quantiles(values, n=100, method="inclusive")`` at
    the cut point ``fraction * 100``: position ``fraction * (n - 1)`` between
    the two nearest samples.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    position = fraction * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


def median(values: Iterable[float]) -> float:
    """Median of an unsorted sample."""
    return percentile(sorted(values), 0.5)


#: ``personality(2)`` flag that turns address-space randomisation off.
ADDR_NO_RANDOMIZE = 0x0040000
_QUERY_PERSONALITY = 0xFFFFFFFF


def _personality(persona: int) -> int:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    return libc.personality(persona)


def disable_aslr() -> None:
    """Turn address-space randomisation off for the programs this process
    executes next (a ``preexec_fn``).  A refused call leaves it on."""
    current = _personality(_QUERY_PERSONALITY)
    if current != -1:
        _personality(current | ADDR_NO_RANDOMIZE)


def aslr_disabled() -> bool:
    """True when this process runs without address-space randomisation."""
    current = _personality(_QUERY_PERSONALITY)
    return current != -1 and bool(current & ADDR_NO_RANDOMIZE)


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> list[int]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are counted once, so the result never goes negative.
    """
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = [end - start for start, end in zip(starts, ends)]
    for parent, kids in children.items():
        low, high = starts[parent], ends[parent]
        covered = 0
        run_start = run_end = None
        for kid in sorted(kids, key=starts.__getitem__):
            start, end = max(starts[kid], low), min(ends[kid], high)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        result[parent] -= covered
    return result


class SpanRecorder:
    """Flat in-memory span store; one stack of open spans (single thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.kinds = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        """Intern a span name."""
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` with every call recorded as a span named ``name``."""
        kind = self.name_id(name)
        kinds, starts, ends, parents, stack = (
            self.kinds, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.kinds)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_ms`` and ``self_ms``."""
        own = self_times(self.starts, self.ends, self.parents)
        totals = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in self.names}
        for kind, start, end, self_ns in zip(self.kinds, self.starts, self.ends, own):
            row = totals[self.names[kind]]
            row["calls"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += self_ns / 1e6
        return totals

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self),
            "arrays": [
                ["kind", self.kinds.typecode],
                ["start_ns", self.starts.typecode],
                ["end_ns", self.ends.typecode],
                ["parent", self.parents.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        with path.open("wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.kinds, self.starts, self.ends, self.parents):
                column.tofile(handle)


class Patcher:
    """Swaps attributes for wrappers and restores every original on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def method(self, owner: type, name: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.name`` (looked up on the class itself) by ``make(original)``."""
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def function(self, module_name: str, name: str, make: Callable[[Any], Any]) -> None:
        """Replace a module function everywhere ``repro`` imported it by name."""
        original = getattr(sys.modules[module_name], name)
        replacement = make(original)
        for module_key, module in sorted(sys.modules.items()):
            if module_key.split(".")[0] != "repro" or module is None:
                continue
            if module.__dict__.get(name) is original:
                self._saved.append((module, name, original))
                setattr(module, name, replacement)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


#: Traced entry points: ``(span name, module, class or None, attribute)``.
#: A span name is the per-layer metric prefix it feeds.
TRACE_POINTS: tuple[tuple[str, str, Optional[str], str], ...] = (
    ("core.seal", "repro.core.chain", "Blockchain", "seal_block"),
    ("core.receive", "repro.core.chain", "Blockchain", "receive_block"),
    ("core.summary", "repro.core.summarizer", "Summarizer", "build_summary_block"),
    ("core.summary.collect", "repro.core.summarizer", "Summarizer", "collect_entries"),
    ("core.index.append", "repro.core.index", "ChainIndex", "on_append"),
    ("core.index.cut", "repro.core.index", "ChainIndex", "cut_before"),
    ("crypto.canonical", "repro.crypto.hashing", None, "canonical_json"),
    ("crypto.block_hash", "repro.core.block", "Block", "compute_hash"),
    ("crypto.sign", "repro.crypto.signatures", None, "sign_entry"),
    ("crypto.verify", "repro.crypto.signatures", "SimplifiedScheme", "verify"),
    ("crypto.verify", "repro.crypto.signatures", "EcdsaScheme", "verify"),
    ("crypto.verify", "repro.crypto.signatures", "EcdsaScheme", "verify_batch"),
    ("storage.append", "repro.storage.wal", "JournalBlockStore", "append"),
    ("storage.append", "repro.storage.memstore", "MemoryBlockStore", "append"),
    ("storage.truncate", "repro.storage.wal", "JournalBlockStore", "truncate_before"),
    ("storage.truncate", "repro.storage.memstore", "MemoryBlockStore", "truncate_before"),
    ("storage.compact", "repro.storage.wal", "JournalBlockStore", "compact"),
    ("network.kernel", "repro.network.kernel", "EventKernel", "step"),
    ("network.transport", "repro.network.transport", "InMemoryTransport", "send"),
    ("network.transport", "repro.network.transport", "InMemoryTransport", "send_async"),
    ("network.transport", "repro.network.transport", "InMemoryTransport", "post"),
    ("network.transport", "repro.network.transport", "InMemoryTransport", "publish"),
    ("service.submit", "repro.service.client", "LocalLedgerClient", "submit"),
    ("service.submit", "repro.service.remote", "RemoteLedgerClient", "submit"),
    ("service.submit", "repro.service.remote", "RemoteLedgerClient", "submit_async"),
    ("service.erasure", "repro.service.client", "LocalLedgerClient", "request_deletion"),
    ("service.erasure", "repro.service.remote", "RemoteLedgerClient", "request_deletion"),
    ("workloads.fleet", "repro.workloads.fleet", "FleetDriver", "_on_arrival"),
    ("workloads.fleet", "repro.workloads.fleet", "FleetDriver", "_pump"),
    ("workloads.fleet", "repro.workloads.fleet", "FleetDriver", "_drain_backlog"),
    ("workloads.fleet", "repro.workloads.fleet", "FleetDriver", "_execute"),
    ("workloads.fleet", "repro.workloads.fleet", "FleetDriver", "_complete"),
    ("workloads.generate", "repro.workloads.base", None, "arrival_schedule"),
    ("workloads.generate", "repro.workloads.gdpr", "GdprErasureWorkload", "cases"),
)


def install_trace(patcher: Patcher, recorder: SpanRecorder) -> None:
    """Wrap every :data:`TRACE_POINTS` entry in a span of ``recorder``."""
    for span, module_name, class_name, attribute in TRACE_POINTS:
        module = importlib.import_module(module_name)
        make = functools.partial(recorder.wrap, span)
        if class_name is None:
            patcher.function(module_name, attribute, make)
        else:
            patcher.method(getattr(module, class_name), attribute, make)
