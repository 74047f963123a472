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
  reclaimed.

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
from repro.storage.traversal import breadth_first_order

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
    pages) is read from the store's incrementally maintained
    remembered-set index in O(partition + boundary);
    :func:`repro.gc.remembered.full_scan_frontier` is the O(heap)
    from-scratch reference the tests compare it against.

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
        survivors, fixup_pages = self.prepare(pid)
        return self.apply(pid, survivors, fixup_pages)

    def prepare(self, pid: PartitionId) -> tuple[list[ObjectId], set[PageId]]:
        """The read-only half of a collection: frontier + survivor trace.

        Derives the partition's conservative roots and external fix-up
        pages, then Cheney-traces the survivors. Mutates nothing and
        charges no I/O, so it can run speculatively ahead of the trigger
        (the parallel scheduler of :mod:`repro.gc.parallel` does exactly
        that) — ``collect(pid)`` is always ``prepare`` + ``apply``.
        """
        store = self._store
        roots = store.partition_roots(pid)
        return self._trace_survivors(pid, roots), store.external_source_pages(pid)

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
        trace validated against the store's trace epochs). ``plan`` is a
        :class:`~repro.storage.heap.CompactionPlan` built ahead of the
        pause under the same validity contract; without one the store
        builds the identical plan inside the pause. Either way compaction
        is the one route ``plan → bulk reclaim → offset scatter``, so a
        plan brought along shortens the pause and never changes the
        outcome.
        """
        store = self._store
        partition = store.partitions[pid]
        po_before = partition.pointer_overwrites
        overwrite_clock = store.pointer_overwrites
        pages_before = partition.used_pages(store.config.page_size)
        self.traced_objects_total += len(survivors)
        self.heap_objects_total += len(store.objects)

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

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _trace_survivors(
        self, pid: PartitionId, roots: set[ObjectId]
    ) -> list[ObjectId]:
        """Cheney breadth-first trace from the partition's conservative roots.

        Returns survivors in copy order — the list is Cheney's to-space,
        scanned as it is appended to. Roots are enqueued in a stable sorted
        order so runs are deterministic regardless of how the frontier was
        derived. Restricting the traversal domain to the partition's residents
        means pointers leaving the partition are not traversed (§3.1).
        """
        store = self._store
        return breadth_first_order(
            store.objects, sorted(roots), within=store.partitions[pid].residents
        )
