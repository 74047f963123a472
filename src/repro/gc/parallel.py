"""Pipelined collection: speculative tracing ahead of the trigger.

The serial collector runs both halves of a collection — the read-only
survivor trace and the mutating reclamation — inside the trigger's
stop-the-world window. This module decouples them:

1. **Snapshot.** When the clock comes within the scheduler's *window* of
   the due point, and again at each wake-up after it — every wake-up
   halves the remaining distance to the trigger, the last landing one
   clock tick before it — the scheduler predicts the victim partition and
   snapshots its frontier — the conservative roots and external fix-up
   pages the :class:`~repro.gc.remembered.RememberedSetIndex` maintains
   incrementally — together with the store's trace epochs at that
   instant. A snapshot whose epochs still hold is kept, not retaken.
2. **Trace + plan.** The snapshot is Cheney-traced over the live heap (the
   object table and the victim's resident set) and the survivors' compaction
   plan (:meth:`~repro.storage.heap.ObjectStore.plan_compaction`: reclaimed
   list and layout) is built from it, inline at the pump point: both are
   paid between two events of the replay / stream-admission loop, not
   inside the stop-the-world window.
3. **Validate + ordered apply.** When the trigger actually fires, the
   scheduler re-checks the victim's trace epochs and applies reclamation
   through the exact serial sequence (:meth:`~repro.gc.collector.
   CopyingCollector.apply`). A stale snapshot — any frontier- or
   graph-affecting mutation bumped the partition's epoch, or any
   compaction bumped the global epoch — is discarded and trace and plan
   re-run inline, which *is* the serial path: the pause runs the same
   three kernels either way and speculation only decides how many of
   them are already done.

**The window is under feedback.** How far ahead of the trigger to start
is the one rate this collector sets for itself, and a fixed fraction of
the interval is the wrong controller for it: a trace taken early is
thrown away whenever the mutator touches the victim before the trigger.
The scheduler therefore keeps the lead as state, in the trigger clock's
own units (application I/Os, pointer overwrites or allocated bytes alike),
and moves it on the two outcomes it counts anyway: a collection that found
no snapshot — one event carried the clock across the wake-up and the
trigger together — doubles it; every trace a cycle takes beyond its first
shrinks it by an eighth. ``margin × interval`` is the cap and the first
cycle's value. The asymmetry is the point: a miss costs a full-length
pause, a wasted trace only throughput.

Because a speculative trace is only ever used when the epochs prove it
equals what an inline trace would compute, results are **identical to the
serial collector whatever the window is**: pickle-equal summaries,
identical iostats, identical crash/recovery drills. The window and the
margin affect wall-clock only — which is why ``collection=`` /
``gc_workers=`` are excluded from result-cache fingerprints, exactly like
``replay=``.

Conservatism is unchanged from the serial collector: a remembered-in
reference is a root even when its source is garbage, so cross-partition
cycles still survive until :meth:`~repro.gc.collector.CopyingCollector.
collect_global` — speculation neither widens nor narrows the frontier.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.gc.collector import CollectionResult, CopyingCollector
from repro.gc.selection import (
    MostGarbageOracleSelection,
    PartitionSelectionPolicy,
    RandomSelection,
    RoundRobinSelection,
    UpdatedPointerSelection,
)
from repro.storage.heap import ObjectStore
from repro.storage.partition import PartitionId
from repro.storage.traversal import breadth_first_order

if TYPE_CHECKING:
    from repro.storage.buffer import PageId
    from repro.storage.heap import CompactionPlan

#: Valid ``collection`` modes: ``"serial"`` runs trace + apply inside the
#: trigger window; ``"parallel"`` pre-traces the likely victim shortly
#: before the trigger and validates at apply.
#: Both produce identical results — the serial path is the A/B reference.
COLLECTION_MODES = ("serial", "parallel")

#: Default margin: the largest fraction of the trigger interval before
#: the due point at which the simulator starts waking the scheduler — the
#: first cycle's window and the cap on every later one (see
#: :meth:`ParallelCollectionScheduler.lead`). Inside the window the
#: wake-ups are geometric (each one halves the remaining distance to the
#: trigger, so a window of ``w`` clock ticks costs about ``log2(w) + 1``
#: pumps). The victim is traced inline at the pump, so a wider window buys
#: nothing: it only leaves the first trace more time to go stale. The
#: value shifts wall-clock only, never results.
DEFAULT_GC_MARGIN = 0.25

#: Window feedback: the factor on a speculation miss and on each trace a
#: cycle takes beyond its first. A miss is a full-length pause, a wasted
#: trace only throughput, so the window grows fast and shrinks slowly; the
#: pair was sized by hit count first and traces second
#: (``results/pr24_speculation_window.md``).
WINDOW_WIDEN = 2.0
WINDOW_NARROW = 0.875


def peek_selection(
    selection: PartitionSelectionPolicy, store: ObjectStore
) -> Optional[PartitionId]:
    """Predict ``selection.select(store)`` without mutating policy state.

    The stateless built-ins are probed directly; the stateful ones have
    their state saved and restored around the probe (``RoundRobin``'s
    cursor, ``Random``'s generator state — consuming entropy here would
    desynchronise the real draw and change results). Unknown policy
    subclasses return ``None``: no speculation, the collection simply runs
    the serial path inline.
    """
    kind = type(selection)
    if kind is UpdatedPointerSelection or kind is MostGarbageOracleSelection:
        return selection.select(store)
    if kind is RoundRobinSelection:
        saved = selection._last
        try:
            return selection.select(store)
        finally:
            selection._last = saved
    if kind is RandomSelection:
        state = selection._rng.getstate()
        try:
            return selection.select(store)
        finally:
            selection._rng.setstate(state)
    return None


class _Speculation:
    """One partition's frontier snapshot plus its trace result."""

    __slots__ = (
        "pid",
        "partition_epoch",
        "compaction_epoch",
        "roots",
        "fixup_pages",
        "survivors",
        "plan",
    )

    def __init__(
        self,
        pid: PartitionId,
        partition_epoch: int,
        compaction_epoch: int,
        roots: list[int],
        fixup_pages: "set[PageId]",
    ) -> None:
        self.pid = pid
        self.partition_epoch = partition_epoch
        self.compaction_epoch = compaction_epoch
        self.roots = roots
        self.fixup_pages = fixup_pages
        self.survivors: Optional[list[int]] = None
        self.plan: "Optional[CompactionPlan]" = None


class ParallelCollectionScheduler:
    """Pipelines the read-only half of collections with replay intake.

    Args:
        store: The heap being collected.
        collector: The serial collector whose ``prepare``/``apply`` split
            this scheduler drives; apply order (and therefore every
            result) is exactly the serial trigger order.
        selection: The run's partition-selection policy, probed
            non-mutatingly to predict victims.
        margin: Largest fraction of the trigger interval before the due
            point at which the simulator starts pumping speculative
            traces (see :data:`DEFAULT_GC_MARGIN`).
    """

    def __init__(
        self,
        store: ObjectStore,
        collector: CopyingCollector,
        selection: PartitionSelectionPolicy,
        margin: float = DEFAULT_GC_MARGIN,
    ) -> None:
        if not 0.0 <= margin < 1.0:
            raise ValueError(f"margin must be in [0, 1), got {margin}")
        self.store = store
        self.collector = collector
        self.selection = selection
        self.margin = margin
        #: How far ahead of the trigger speculation starts, in
        #: trigger-clock units (:meth:`lead`). Derived from trace epochs
        #: and the clock alone, so it is as deterministic as the counters
        #: below — and like them can only move wall-clock.
        self.window = math.inf
        self._pending: dict[PartitionId, _Speculation] = {}
        #: Observability counters (telemetry-only — never part of summaries
        #: or reports). Snapshot validity depends on the store's epoch
        #: counters alone, so they are a pure function of the trace.
        self.pumps = 0
        self.speculative_traces = 0
        self.speculation_hits = 0
        self.speculation_stale = 0
        self.speculation_misses = 0
        self.wasted_traces = 0

    def lead(self, interval: float) -> float:
        """How far ahead of a trigger ``interval`` away to start pumping.

        The window, capped at ``margin × interval`` — which is also what
        the first cycle gets. Called once per armed trigger; arming the
        same trigger again (nothing was collectable) changes nothing.
        """
        self.window = min(self.window, interval * self.margin)
        return self.window

    # ------------------------------------------------------------------
    # Pump: speculative snapshot + trace (read-only)
    # ------------------------------------------------------------------

    def pump(self) -> None:
        """Speculatively trace the likely victim partition.

        Called from :meth:`repro.sim.simulator.Simulation._collect` and
        from nowhere else: the replay loops — and the service's admission
        loop, which drives the same method — land there when the clock
        reaches a wake-up, the first :meth:`lead` ahead of the trigger and
        each later one halfway to it. Touches no mutable store state — a
        pump can never change what the run computes.
        """
        self.pumps += 1
        pid = peek_selection(self.selection, self.store)
        if pid is None:
            return
        current = self._pending.get(pid)
        if current is not None:
            if self._valid(current):
                return
            self.wasted_traces += 1
        if self._pending:
            # Another trace in the same cycle: the last one went stale, or
            # the prediction moved, before the trigger — it came too early.
            self.window *= WINDOW_NARROW
        spec = self._pending[pid] = self._snapshot(pid)
        self.speculative_traces += 1
        # Traced inline: outside the collection pause all the same.
        survivors = breadth_first_order(
            self.store.objects,
            spec.roots,
            within=self.store.partitions[pid].residents,
        )
        # Also build the compaction plan — the read-only half of the
        # reclamation, which the pause would otherwise start with.
        # Guarded by the same epoch pair as the trace.
        spec.plan = self.store.plan_compaction(pid, survivors)
        spec.survivors = survivors

    # ------------------------------------------------------------------
    # Apply: validate + deterministic serial-order reclamation
    # ------------------------------------------------------------------

    def collect(self, pid: PartitionId) -> CollectionResult:
        """Collect ``pid``, reusing a speculative trace when still exact.

        Validates the victim's snapshot against the store's current
        epochs, and falls back to an inline
        :meth:`~repro.gc.collector.CopyingCollector.prepare` — the serial
        path — when the snapshot is stale or absent. Reclamation is then
        applied through the serial ``apply`` sequence, so the result is
        byte-identical to ``CopyingCollector.collect(pid)``.
        """
        spec = self._pending.pop(pid, None)
        # Compaction bumps the global epoch, invalidating every other
        # outstanding snapshot.
        self.wasted_traces += len(self._pending)
        self._pending.clear()
        if spec is None:
            # No wake-up fell between the window opening and the trigger
            # (or, rarely, the one that did predicted another partition).
            self.speculation_misses += 1
            self.window *= WINDOW_WIDEN
        elif self._valid(spec):
            self.speculation_hits += 1
            return self.collector.apply(
                pid, spec.survivors, spec.fixup_pages, plan=spec.plan
            )
        else:
            self.speculation_stale += 1
        survivors, fixup_pages = self.collector.prepare(pid)
        return self.collector.apply(pid, survivors, fixup_pages)

    def stats(self) -> dict[str, float]:
        """Speculation counters and the window for telemetry (`gc.parallel.*`)."""
        return {
            "pumps": self.pumps,
            "speculative_traces": self.speculative_traces,
            "speculation_hits": self.speculation_hits,
            "speculation_stale": self.speculation_stale,
            "speculation_misses": self.speculation_misses,
            "wasted_traces": self.wasted_traces,
            "window": self.window,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _snapshot(self, pid: PartitionId) -> _Speculation:
        """Capture the frontier and epoch pair on the mutator thread.

        Runs at a quiescent point (between events), so reading the
        remembered-set index and placement columns is safe. Roots are
        sorted here — the same stable order the serial trace enqueues.
        """
        store = self.store
        return _Speculation(
            pid=pid,
            partition_epoch=store.trace_epochs[pid],
            compaction_epoch=store.compaction_epoch,
            roots=sorted(store.partition_roots(pid)),
            fixup_pages=store.external_source_pages(pid),
        )

    def _valid(self, spec: _Speculation) -> bool:
        return (
            spec.compaction_epoch == self.store.compaction_epoch
            and spec.partition_epoch == self.store.trace_epochs[spec.pid]
        )
