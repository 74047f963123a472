"""Partitioned copying garbage collector.

The collector implements the algorithm of §3.1, following [CWZ94] and [Che70]:

* One partition is collected at a time (chosen by a partition-selection
  policy, see :mod:`repro.gc.selection`).
* Liveness within the partition is computed by a breadth-first (Cheney)
  traversal from the partition's conservative roots — database roots resident
  in the partition plus every resident with a remembered incoming reference.
  Pointers *leaving* the partition are not traversed.
* Survivors are copied (compacted) to the front of the partition in
  breadth-first copy order, improving reference locality; everything else is
  reclaimed. The trace computes both sides at once: its to-space is the
  survivor order and its leftover work set the reclaimed set, so the
  compaction plan is built from the trace's output with no second pass over
  the residents and no per-survivor object lookup. The plan also takes
  every read reclamation needs, so applying it only writes.

I/O cost model (documented in DESIGN.md): a collection

1. reads every allocated page of the victim partition,
2. writes the compacted survivor pages, and
3. performs a read-modify-write of each distinct external page holding a
   pointer into the partition (relocation fix-up of remembered references).

Buffered pages of the victim partition are invalidated (their images are
stale after compaction); the dirty ones among them are written back first,
charged to the collector.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.buffer import PageId
from repro.storage.heap import CompactionPlan, ObjectStore
from repro.storage.iostats import IOCategory
from repro.storage.object_model import ObjectId
from repro.storage.partition import PartitionId
from repro.storage.traversal import cheney_trace


@dataclass(frozen=True)
class CollectionResult:
    """Outcome of collecting one partition.

    Attributes:
        collection_number: Zero-based sequence number of this collection.
        partition: The partition that was collected.
        reclaimed_bytes: Garbage bytes reclaimed ("collection yield").
        reclaimed_objects: Number of objects reclaimed.
        live_bytes: Bytes of surviving objects after compaction.
        live_objects: Number of surviving objects.
        gc_reads: Read I/O operations charged to this collection.
        gc_writes: Write I/O operations charged to this collection.
        pointer_overwrites_at_selection: The victim partition's FGS counter
            at the moment it was collected (its "PO(p)" of §2.4, consumed by
            the FGS-based garbage estimators before it is reset to zero).
        overwrite_clock: Global pointer-overwrite clock when the collection
            ran (the SAGA policy's notion of time).
    """

    collection_number: int
    partition: PartitionId
    reclaimed_bytes: int
    reclaimed_objects: int
    live_bytes: int
    live_objects: int
    gc_reads: int
    gc_writes: int
    pointer_overwrites_at_selection: int
    overwrite_clock: int

    @property
    def gc_io(self) -> int:
        """Total I/O operations this collection performed."""
        return self.gc_reads + self.gc_writes

    @property
    def yield_per_overwrite(self) -> float:
        """Bytes reclaimed per pointer overwrite recorded against the victim
        partition — the current-behaviour ``GPPO`` sample of §2.4.2 (0 when
        the partition saw no overwrites)."""
        if self.pointer_overwrites_at_selection == 0:
            return 0.0
        return self.reclaimed_bytes / self.pointer_overwrites_at_selection


class CopyingCollector:
    """Collects one partition at a time with Cheney copying compaction.

    Each collection's frontier (conservative roots + external fix-up
    pages) is derived by the store from the victim's remembered set
    (``Partition.incoming``) and its root and pin sets, in
    O(partition + boundary); the tests compare it against an O(heap)
    from-scratch scan (``tests/frontier_oracle.py``).

    Args:
        store: The heap to collect.
    """

    def __init__(self, store: ObjectStore) -> None:
        self._store = store
        self.collections_performed = 0
        self.total_reclaimed_bytes = 0
        #: Objects traced (visited by the survivor scan) across all
        #: collections — the numerator of the traced-vs-heap telemetry and
        #: the bench's traced-objects-per-collection.
        self.traced_objects_total = 0
        #: Heap size (object count) sampled at each collection, summed —
        #: the denominator of the traced-vs-heap ratio.
        self.heap_objects_total = 0

    def collect(self, pid: PartitionId) -> CollectionResult:
        """Collect partition ``pid`` and return the outcome."""
        return self.apply(pid, *self.prepare(pid))

    def prepare(
        self, pid: PartitionId
    ) -> tuple[list[ObjectId], set[PageId], CompactionPlan]:
        """The read-only half of a collection: frontier, trace and plan.

        Derives the partition's conservative roots and external fix-up
        pages, Cheney-traces the survivors and plans the compaction from
        what the trace left unreached (:meth:`trace`). Mutates nothing and
        charges no I/O, so it can run speculatively ahead of the trigger
        (the scheduler of :mod:`repro.gc.parallel` does exactly
        that) — ``collect(pid)`` is always ``prepare`` + ``apply``.
        """
        plan = self.trace(pid, sorted(self._store.partition_roots(pid)))
        return plan.survivors, self._store.external_source_pages(pid), plan

    def trace(self, pid: PartitionId, roots: list[ObjectId]) -> CompactionPlan:
        """Cheney-trace partition ``pid`` from ``roots`` and plan its compaction.

        Roots are enqueued in the order given — callers pass them sorted,
        so runs are deterministic however the frontier was derived.
        Restricting the traversal domain to the partition's residents
        means pointers leaving the partition are not traversed (§3.1), and
        the residents the scan leaves unreached are exactly the reclaimed
        set, which the plan takes as it is. The plan's ``survivors`` are
        Cheney's to-space, in copy order.
        """
        store = self._store
        survivors, unreached = cheney_trace(
            store.placements, roots, within=store.partitions[pid].residents
        )
        return store.plan_compaction(pid, survivors, unreached)

    def apply(
        self,
        pid: PartitionId,
        survivors: list[ObjectId],
        fixup_pages: set[PageId],
        plan: "CompactionPlan | None" = None,
    ) -> CollectionResult:
        """The mutating half of a collection: reclaim, compact, charge I/O.

        ``survivors``/``fixup_pages`` must describe the partition's *current*
        state (either just computed by :meth:`prepare`, or a speculative
        trace validated against the store's trace epochs). ``plan`` is the
        :class:`~repro.storage.heap.CompactionPlan` built from the same
        trace, under the same validity contract; a caller with survivors
        but no trace (``collect_global``) brings none, and the store's
        front door derives the identical plan inside the pause. Either way
        compaction is the one route: the plan takes every read, then
        :meth:`~repro.storage.heap.ObjectStore.compact_partition` only
        writes (rows emptied, planned forgets, resident set swapped in,
        offsets scattered).
        """
        store = self._store
        partition = store.partitions[pid]
        po_before = partition.pointer_overwrites
        overwrite_clock = store.pointer_overwrites
        pages_before = partition.used_pages(store.config.page_size)
        self.traced_objects_total += len(survivors)
        self.heap_objects_total += len(store.placements)

        reads_before = store.iostats.collector.reads
        writes_before = store.iostats.collector.writes

        # 1. Read the victim partition (every allocated page). Stale buffered
        #    images are invalidated (dirty ones written back) first.
        store.buffer.invalidate_partition(pid, IOCategory.COLLECTOR)
        store.iostats.record_read(IOCategory.COLLECTOR, pages_before)

        # 2. Compact: reclaim non-survivors and rewrite survivors contiguously.
        reclaimed_objects = len(partition.residents) - len(survivors)
        reclaimed_bytes = store.compact_partition(pid, survivors, plan=plan)
        pages_after = partition.used_pages(store.config.page_size)
        store.iostats.record_write(IOCategory.COLLECTOR, pages_after)

        # 3. Fix up external references to relocated objects.
        fixups = len(fixup_pages)
        store.iostats.record_read(IOCategory.COLLECTOR, fixups)
        store.iostats.record_write(IOCategory.COLLECTOR, fixups)

        live_bytes = partition.fill
        result = CollectionResult(
            collection_number=self.collections_performed,
            partition=pid,
            reclaimed_bytes=reclaimed_bytes,
            reclaimed_objects=reclaimed_objects,
            live_bytes=live_bytes,
            live_objects=len(survivors),
            gc_reads=store.iostats.collector.reads - reads_before,
            gc_writes=store.iostats.collector.writes - writes_before,
            pointer_overwrites_at_selection=po_before,
            overwrite_clock=overwrite_clock,
        )
        self.collections_performed += 1
        self.total_reclaimed_bytes += reclaimed_bytes
        return result

    def collect_global(self) -> list[CollectionResult]:
        """Collect every partition against *global* reachability.

        Partitioned collection conservatively keeps any resident with a
        remembered external reference — even from dead objects — so
        cross-partition cyclic garbage can survive indefinitely (the
        limitation [YNY94] discusses). A global collection marks the whole
        database from the persistent roots (and allocation pins) once, then
        compacts every partition keeping only globally reachable objects.

        This is the expensive stop-the-world fallback a production system
        schedules rarely; the rate policies never trigger it. Returns one
        :class:`CollectionResult` per partition, in pid order.
        """
        store = self._store
        reachable = store.reachable_from(store.roots | store.unlinked)
        return [
            self.apply(
                partition.pid,
                sorted(partition.residents & reachable),
                store.external_source_pages(partition.pid),
            )
            for partition in store.partitions
        ]
