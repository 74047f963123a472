"""Pipelined collection: speculative tracing ahead of the trigger.

Every triggered collection of a :class:`~repro.sim.simulator.Simulation`
runs through the scheduler of this module. A collection has two halves:
the read-only survivor trace with its compaction plan, and the mutating
reclamation. The scheduler decouples them:

1. **Snapshot.** When the clock comes within the scheduler's *window* of
   the due point, and again at each wake-up after it — every wake-up
   halves the remaining distance to the trigger, the last landing one
   clock tick before it — the scheduler predicts the victim partition and
   snapshots its frontier — the conservative roots and external fix-up
   pages the store derives from the victim's remembered set
   (``Partition.incoming``) and its root and pin sets — together with
   the store's trace epochs at that
   instant. A snapshot whose epochs still hold is kept, not retaken.
2. **Trace + plan.** The snapshot is Cheney-traced over the live heap (the
   object table and the victim's resident set) and the compaction plan
   (:meth:`~repro.storage.heap.ObjectStore.plan_compaction`) is built
   from the trace's survivors and its unreached set, by the same
   :meth:`~repro.gc.collector.CopyingCollector.trace` the inline
   ``prepare`` runs, inline at the pump point. The plan holds every read
   the compaction needs — reclaimed list, layout, the reclaimed objects'
   outgoing cross-partition edges and slot counts, the new resident set —
   so all of it is paid between two events of the replay /
   stream-admission loop, not inside the stop-the-world window.
3. **Validate + ordered apply.** When the trigger actually fires, the
   scheduler re-checks the victim's trace epochs and applies reclamation
   through the one ``apply`` sequence (:meth:`~repro.gc.collector.
   CopyingCollector.apply`). A validated plan leaves the pause only
   writes: rows emptied (dead flags are read there — a death declared
   elsewhere bumps no epoch), planned forgets, the resident set swapped
   in, offsets scattered. A stale snapshot — any frontier- or
   graph-affecting mutation bumped the partition's epoch, or any
   compaction bumped the global epoch — is discarded and trace and plan
   re-run inline, as the reference
   :meth:`~repro.gc.collector.CopyingCollector.collect` does: *plan
   reads → pause writes* either way, and speculation only decides
   whether the reads are already done.

**The window is under feedback.** How far ahead of the trigger to start
is the one rate this collector sets for itself, and a fixed fraction of
the interval is the wrong controller for it: a trace taken early is
thrown away whenever the mutator touches the victim before the trigger.
The scheduler therefore keeps the lead as state, in the trigger clock's
own units (application I/Os, pointer overwrites or allocated bytes alike),
and moves it on the two outcomes it counts anyway: a collection that found
no snapshot — one event carried the clock across the wake-up and the
trigger together — doubles it; every trace a cycle takes beyond its first
shrinks it by an eighth. ``DEFAULT_GC_MARGIN × interval`` is the cap and
the first cycle's value. The asymmetry is the point: a miss costs a full-length
pause, a wasted trace only throughput.

Because a speculative trace is only ever used when the epochs prove it
equals what an inline trace would compute, results are **identical to
the inline reference whatever the window is**: pickle-equal summaries,
identical iostats, identical crash/recovery drills. A lead of zero wakes
nothing before the trigger, so every collection misses and runs
``prepare`` + ``apply`` inline; ``tests/`` pins the lead there as the
oracle every pipelined run is compared against. The window and the
margin affect wall-clock only.

Conservatism is unchanged from the inline trace: a remembered-in
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

if TYPE_CHECKING:
    from repro.storage.buffer import PageId
    from repro.storage.heap import CompactionPlan

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
    the inline path.
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
    """One partition's frontier snapshot plus its trace's compaction plan."""

    __slots__ = (
        "pid",
        "partition_epoch",
        "compaction_epoch",
        "roots",
        "fixup_pages",
        "plan",
    )

    def __init__(
        self,
        pid: PartitionId,
        partition_epoch: int,
        compaction_epoch: int,
        roots: list[int],
        fixup_pages: "set[PageId]",
        plan: "CompactionPlan",
    ) -> None:
        self.pid = pid
        self.partition_epoch = partition_epoch
        self.compaction_epoch = compaction_epoch
        self.roots = roots
        self.fixup_pages = fixup_pages
        self.plan = plan


class ParallelCollectionScheduler:
    """Pipelines the read-only half of collections with replay intake.

    Args:
        store: The heap being collected.
        collector: The collector whose ``prepare``/``apply`` split this
            scheduler drives; apply order (and therefore every result) is
            exactly the trigger order.
        selection: The run's partition-selection policy, probed
            non-mutatingly to predict victims.
    """

    def __init__(
        self,
        store: ObjectStore,
        collector: CopyingCollector,
        selection: PartitionSelectionPolicy,
    ) -> None:
        self.store = store
        self.collector = collector
        self.selection = selection
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

        The window, capped at ``DEFAULT_GC_MARGIN × interval`` — which is
        also what the first cycle gets. Called once per armed trigger;
        arming the same trigger again (nothing was collectable) changes
        nothing.
        """
        self.window = min(self.window, interval * DEFAULT_GC_MARGIN)
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
        self._pending[pid] = self._snapshot(pid)
        self.speculative_traces += 1

    # ------------------------------------------------------------------
    # Apply: validate + deterministic trigger-order reclamation
    # ------------------------------------------------------------------

    def collect(self, pid: PartitionId) -> CollectionResult:
        """Collect ``pid``, reusing a speculative trace when still exact.

        Validates the victim's snapshot against the store's current
        epochs, and falls back to an inline
        :meth:`~repro.gc.collector.CopyingCollector.prepare` — the
        reference path — when the snapshot is stale or absent.
        Reclamation is then applied through the one ``apply`` sequence,
        so the result is byte-identical to
        ``CopyingCollector.collect(pid)``.
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
                pid, spec.plan.survivors, spec.fixup_pages, spec.plan
            )
        else:
            self.speculation_stale += 1
        return self.collector.apply(pid, *self.collector.prepare(pid))

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
        """Capture the frontier and epoch pair at a pump point, and trace it.

        Pump points fall between events, so the remembered set and the
        placement columns read here are the ones the trigger would see if
        no event intervened. Roots are sorted here — the same stable order
        the inline trace enqueues. The trace and its compaction plan are
        :meth:`~repro.gc.collector.CopyingCollector.trace`'s, run inline —
        outside the collection pause all the same — and guarded by the
        same epoch pair.
        """
        store = self.store
        roots = sorted(store.partition_roots(pid))
        return _Speculation(
            pid=pid,
            partition_epoch=store.trace_epochs[pid],
            compaction_epoch=store.compaction_epoch,
            roots=roots,
            fixup_pages=store.external_source_pages(pid),
            plan=self.collector.trace(pid, roots),
        )

    def _valid(self, spec: _Speculation) -> bool:
        return (
            spec.compaction_epoch == self.store.compaction_epoch
            and spec.partition_epoch == self.store.trace_epochs[spec.pid]
        )
