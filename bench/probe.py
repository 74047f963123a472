"""Instrumentation the benchmark installs from outside the program.

Everything here wraps *public* calls of ``repro`` (plus the one private
checkpoint method that delimits the service's stall window) by replacing
the attribute on the class or module; nothing inside ``src/`` knows it is
being measured. Two modes share one :class:`Tracer`:

* **pause probe** (end-to-end runs): only the outermost collection call and
  the service checkpoint are wrapped — two ``perf_counter`` reads around
  each, nothing else in the process is touched;
* **full trace** (``--trace 1``): every layer boundary listed in
  :func:`install_layer_spans` is wrapped, and the per-layer self times are
  derived from the recorded parent links.

Spans live in parallel lists (one append per field) because the per-event
wrappers of the service path record several hundred thousand of them.
Wrappers run on the replay thread only: the parallel collector's worker
threads call no wrapped function.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

#: Public per-event calls of the transaction manager and the store.
TX_OPS = ("begin", "commit", "abort", "create", "write_pointer", "access", "update",
          "register_root")
STORAGE_OPS = ("create", "write_pointer", "access", "update", "register_root")

#: Span names recorded once per applied event; written to the trace file as
#: one aggregated record per (cell, name) instead of one line each.
FINE_SPANS = frozenset(
    {"workload.stream_next", "sim.sample"}
    | {f"tx.{op}" for op in TX_OPS}
    | {f"storage.{op}" for op in STORAGE_OPS}
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records ``{name, start, end, parent}`` spans around wrapped calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.nids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def traced(
        self,
        inner: Callable,
        name: str,
        hook: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """``inner`` wrapped in a span; ``hook(args, result)`` runs after it."""
        nid = self._nid(name)
        nids, starts, ends = self.nids, self.starts, self.ends
        parents, stack = self.parents, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            nids.append(nid)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = inner(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """A span the harness opens itself (cell roots, direct timings)."""
        index = len(self.starts)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.nids.append(self._nid(name))
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            yield index
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a span."""
        inner = getattr(owner, attr)
        self._patches.append((owner, attr, inner))
        setattr(owner, attr, self.traced(inner, name, hook))

    def wrap_subclasses(self, base: type, attr: str, name: str) -> None:
        """Wrap ``attr`` on every loaded subclass of ``base`` that defines it."""
        pending = list(base.__subclasses__())
        seen: set[type] = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.wrap(cls, attr, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, inner = self._patches.pop()
            setattr(owner, attr, inner)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def mark(self) -> int:
        """Index the next span will get — slice bounds for one cell."""
        return len(self.starts)

    def durations(self, name: str, lo: int = 0, hi: Optional[int] = None) -> list[float]:
        """Durations of the *outermost* spans called ``name`` in ``[lo, hi)``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        nids, starts, ends, parents = self.nids, self.starts, self.ends, self.parents
        hi = len(starts) if hi is None else hi
        return [
            ends[i] - starts[i]
            for i in range(lo, hi)
            if nids[i] == nid and (parents[i] < 0 or nids[parents[i]] != nid)
        ]

    def self_times(self, lo: int = 0, hi: Optional[int] = None) -> list[float]:
        """Self time of every span in ``[lo, hi)``: duration minus children."""
        starts, ends, parents = self.starts, self.ends, self.parents
        hi = len(starts) if hi is None else hi
        own = [ends[i] - starts[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            parent = parents[i]
            if parent >= lo:
                own[parent - lo] -= ends[i] - starts[i]
        return own

    def by_name(self, lo: int = 0, hi: Optional[int] = None) -> dict[str, dict]:
        """``name -> {count, total_s, self_s}`` over the spans in ``[lo, hi)``."""
        hi = len(self.starts) if hi is None else hi
        own = self.self_times(lo, hi)
        table: dict[str, dict] = {}
        for offset, self_s in enumerate(own):
            i = lo + offset
            row = table.setdefault(
                self.names[self.nids[i]], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += self.ends[i] - self.starts[i]
            row["self_s"] += self_s
        return table

    def write_jsonl(self, path, lo: int = 0) -> int:
        """Write spans from ``lo`` on; returns the number of lines written.

        Coarse spans get one line each; per-event spans (``FINE_SPANS``)
        are folded into one ``aggregated`` line per (cell, name). ``cell`` is
        the index of the span's root ancestor.
        """
        hi = len(self.starts)
        own = self.self_times(lo, hi)
        cell: list[int] = []
        folded: dict[tuple[int, str], list] = {}
        lines = 0
        with open(path, "w", encoding="utf-8") as out:
            for offset in range(hi - lo):
                i = lo + offset
                parent = self.parents[i]
                root = cell[parent - lo] if parent >= lo else i
                cell.append(root)
                name = self.names[self.nids[i]]
                if name in FINE_SPANS:
                    row = folded.setdefault((root, name), [0, 0.0, 0.0])
                    row[0] += 1
                    row[1] += self.ends[i] - self.starts[i]
                    row[2] += own[offset]
                    continue
                record = {
                    "id": i,
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": parent if parent >= lo else None,
                    "cell": root,
                    "self_s": own[offset],
                }
                out.write(json.dumps(record) + "\n")
                lines += 1
            for (root, name), (count, busy, self_s) in sorted(folded.items()):
                record = {
                    "name": name,
                    "cell": root,
                    "aggregated": True,
                    "count": count,
                    "busy_s": busy,
                    "self_s": self_s,
                }
                out.write(json.dumps(record) + "\n")
                lines += 1
        return lines


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------


def install_pause_probe(tracer: Tracer) -> None:
    """The end-to-end wrapper set: collection and checkpoint windows only.

    ``ParallelCollectionScheduler.collect`` drives ``prepare``/``apply``
    directly, never ``CopyingCollector.collect``, so exactly one of the two
    spans opens per collection in either mode. ``GcService._checkpoint`` is
    private, but it *is* the interval during which the service admits
    nothing, and no public call brackets it.
    """
    from repro.gc.collector import CopyingCollector
    from repro.gc.parallel import ParallelCollectionScheduler
    from repro.service.server import GcService

    tracer.wrap(CopyingCollector, "collect", "gc.collect")
    tracer.wrap(ParallelCollectionScheduler, "collect", "gc.collect")
    tracer.wrap(GcService, "_checkpoint", "service.checkpoint")


def install_layer_spans(tracer: Tracer, hooks: dict[str, Callable]) -> None:
    """The traced-rep wrapper set: one span per public call into each layer.

    ``hooks[span_name](args, result)`` fires after the named call, which is
    how the harness reaches objects the engine and the service build for
    themselves (the simulation, the scheduler, the store at a checkpoint).
    """
    import repro.service.server as server
    import repro.workload.trace_cache as trace_cache
    from repro.core.estimators import GarbageEstimator
    from repro.core.rate_policy import RatePolicy
    from repro.gc.collector import CopyingCollector
    from repro.gc.parallel import ParallelCollectionScheduler
    from repro.gc.selection import PartitionSelectionPolicy
    from repro.service.server import GcService
    from repro.sim.cache import ResultCache
    from repro.sim.metrics import Sampler
    from repro.sim.simulator import Simulation
    from repro.storage.heap import ObjectStore
    from repro.tx.manager import TransactionManager
    from repro.tx.recovery import RedoLog
    from repro.tx.wal import WriteAheadLog
    from repro.workload.trace_cache import TraceCache

    install_pause_probe(tracer)
    # workload: the engine resolves traces through the cache; build and
    # compile run inside get_or_build (the generator is lazy, so its time
    # is only separable from compile_trace by the direct cell).
    tracer.wrap(TraceCache, "get_or_build", "workload.trace_resolve")
    tracer.wrap(trace_cache, "compile_trace", "workload.compile")
    # sim: the run itself, result cache, the per-event sampler (the harness
    # opens the engine span around run_experiment_batch itself).
    tracer.wrap(Simulation, "run", "sim.run", hooks.get("sim.run"))
    tracer.wrap(ResultCache, "get", "sim.result_cache")
    tracer.wrap(ResultCache, "put", "sim.result_cache")
    tracer.wrap(Sampler, "on_event", "sim.sample")
    # gc: phases of a collection, victim selection, speculative pumping.
    tracer.wrap(CopyingCollector, "prepare", "gc.prepare")
    tracer.wrap(CopyingCollector, "apply", "gc.apply")
    tracer.wrap(ParallelCollectionScheduler, "pump", "gc.pump", hooks.get("gc.pump"))
    tracer.wrap_subclasses(PartitionSelectionPolicy, "select", "gc.select")
    # core: the rate policy's decision and the estimator it consults.
    tracer.wrap_subclasses(RatePolicy, "next_trigger", "core.policy")
    tracer.wrap_subclasses(GarbageEstimator, "observe_collection", "core.estimator")
    tracer.wrap_subclasses(GarbageEstimator, "estimate", "core.estimator")
    # tx (scalar path only) and the storage calls beneath it.
    for op in TX_OPS:
        tracer.wrap(TransactionManager, op, f"tx.{op}")
    for op in STORAGE_OPS:
        tracer.wrap(ObjectStore, op, f"storage.{op}")
    # checkpoint pieces: snapshot, WAL payload, log truncation.
    tracer.wrap(server, "build_checkpoint", "tx.ckpt_snapshot", hooks.get("tx.ckpt_snapshot"))
    tracer.wrap(WriteAheadLog, "checkpoint", "tx.ckpt_wal")
    tracer.wrap(RedoLog, "install_checkpoint", "tx.ckpt_install")
    tracer.wrap(GcService, "run", "service.run")


class TracedStream:
    """An ``EventStream`` whose ``next()`` calls are spans (streaming generation)."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.label = inner.label

    def events_from(self, start_index: int = 0):
        step = self._tracer.traced(
            self._inner.events_from(start_index).__next__, "workload.stream_next"
        )
        # iter(callable, sentinel): a StopIteration from ``step`` ends it.
        return iter(step, object())


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

#: Candidate high percentiles, best first, each with the sample count at
#: which exactly one sample lies beyond it (p99: one in 100).
HIGH_PERCENTILES = ((99.9, 1000), (99.0, 100), (95.0, 20), (90.0, 10), (75.0, 4))


def high_percentile(count: int, beyond: int = 10) -> float:
    """The highest candidate percentile with at least ``beyond`` samples past it.

    1000 samples support p99 (10 beyond), 10000 support p99.9; fewer than
    ``4 * beyond`` support nothing above the median.
    """
    for pct, one_in in HIGH_PERCENTILES:
        if count >= beyond * one_in:
            return pct
    return 50.0


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile (the ``ceil(pct% * n)``-th smallest value)."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = math.ceil(len(sorted_values) * pct / 100.0)
    return sorted_values[max(rank, 1) - 1]
