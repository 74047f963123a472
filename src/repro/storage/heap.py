"""The object store: a partitioned, paged database heap.

This is the substrate every policy in the reproduction runs against. It owns

* the set of fixed-size partitions (grown on demand, never collected merely
  because space ran out — §3.1 decouples growth from collection),
* object placements (partition + byte offset), from which page residency is
  derived,
* the LRU buffer pool through which all application page accesses flow,
* remembered sets (incoming cross-partition references per partition),
* pointer-overwrite counters (global, as the policies' time base, and per
  partition as the FGS state of §2.4 and the UPDATEDPOINTER selection input),
* exact garbage accounting (``TotGarb`` / ``TotColl`` / ``ActGarb`` of §2.3),
  fed by the workload's death annotations and consumed by the oracle
  estimator and by the evaluation metrics.

The store performs *application* operations (create/access/update/pointer
write). The collector lives in :mod:`repro.gc.collector` and manipulates the
store through the narrow support API at the bottom of this class.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Iterable, Optional, Sequence

from repro.storage.buffer import (
    DEFAULT_BUFFER_PAGES,
    DEFAULT_PAGE_SIZE,
    BufferPool,
    PageId,
)
from repro.storage.iostats import IOCategory, IOStats
from repro.storage.object_model import ObjectId, ObjectKind, StoredObject
from repro.storage.objtable import DENSE_CEILING, ObjectTable
from repro.storage.partition import Partition, PartitionId
from repro.storage.traversal import breadth_first_order

try:  # optional: vectorised compaction layout (prefix sum) and offset scatter
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None

#: Full (zero-free) entries tolerated on the open-partition list before a
#: prune pass rebuilds it. This bounds the list's length, not scan length:
#: scans are short because they start at a fit cursor, past full entries
#: and slivers (fewer free bytes than the object's size) alike. A prune
#: drops the cursors, so the limit is large enough that back-to-back
#: partition fills don't each pay a rebuild and a rescan.
_OPEN_LIST_STALE_LIMIT = 16

#: ``dict.get`` default telling a slot never written from one holding None.
_NO_SLOT = object()


@dataclass
class CompactionPlan:
    """Every read one ``compact_partition`` call needs, taken in advance.

    Built by :meth:`ObjectStore.plan_compaction` and applied by
    :meth:`ObjectStore.compact_partition` — the only way a partition is
    ever compacted — which then only writes. The collection scheduler
    builds it at a pump point, outside the pause, or inside the pause
    when no valid one is pending; a pumped plan is only valid while the
    victim's trace epoch and the global compaction epoch are unchanged
    (the scheduler validates both before use). Every value the plan
    freezes is guarded by one of the two or is harmless when stale:
    pointer slots, roots, pins and remembered entries of the victim bump
    its epoch, a compaction anywhere bumps the global one, and a forget
    aimed at a target that has gone since finds nothing to drop. Dead
    flags are not frozen: a ``dies`` list can kill a victim resident from
    a write in another partition, which bumps neither epoch.
    """

    #: Survivors in copy order (the ``survivors`` argument the plan was
    #: built from).
    survivors: list[ObjectId]
    #: Residents to reclaim: the trace's unreached set (or, without a
    #: trace, the residents minus the survivors) in that set's own
    #: iteration order. Any order will do — reclamation only pops,
    #: discards and sums, so the store it leaves is the same whatever
    #: order it runs in.
    reclaimed: list[ObjectId]
    #: Partition fill after relocation (sum of survivor sizes).
    fill: int
    #: Dense-column survivors and their new offsets (numpy int64 arrays
    #: when numpy is present, plain lists otherwise).
    dense_oids: Any
    dense_offs: Any
    #: Overflow-dict survivors: ``(oid, (pid, new_offset, size))``.
    overflow: list[tuple[ObjectId, tuple[int, int, int]]]
    #: The victim's resident set after compaction, ``set(survivors)``:
    #: the same insertion history as bump-allocating each survivor in copy
    #: order, so it iterates — and the partition's next collection copies
    #: its work set — in that order. Compaction swaps it in whole.
    residents: set[ObjectId]
    #: The reclaimed objects' outgoing cross-partition edges, in reclaimed
    #: order: ``(target_pid, source, target)`` per non-null slot whose
    #: target lived in another partition — the remembered references the
    #: compaction forgets.
    forgets: list[tuple[PartitionId, ObjectId, ObjectId]]
    #: Pointer slots of each reclaimed object, in reclaimed order.
    slot_counts: list[int]
    #: Whether some reclaimed object is a root, an allocation pin or a
    #: remembered target of the victim. Never after a trace (an unreached
    #: object is no frontier member); survivors brought without a trace
    #: may leave such entries to drop.
    frontier: bool


@dataclass(frozen=True)
class StoreConfig:
    """Geometry of the object store.

    Attributes:
        page_size: Bytes per page (paper: 8 KB).
        partition_pages: Pages per partition (paper: 12, i.e. 96 KB).
        buffer_pages: Buffer pool capacity in pages (paper: one partition's
            worth, 12).
    """

    page_size: int = DEFAULT_PAGE_SIZE
    partition_pages: int = DEFAULT_BUFFER_PAGES
    buffer_pages: int = DEFAULT_BUFFER_PAGES

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.partition_pages <= 0:
            raise ValueError("partition_pages must be positive")
        if self.buffer_pages <= 0:
            raise ValueError("buffer_pages must be positive")

    @property
    def partition_size(self) -> int:
        """Bytes per partition."""
        return self.page_size * self.partition_pages


@dataclass
class GarbageAccounts:
    """Exact (oracle) garbage bookkeeping, in bytes.

    ``actual`` is the paper's ``ActGarb = TotGarb - TotColl``. ``undeclared``
    counts bytes the collector reclaimed without the workload having declared
    them dead first; a correct workload generator keeps it at zero (tests
    assert this), but the store tolerates it by folding such bytes into both
    totals so the identity above always holds.
    """

    total_generated: int = 0  # TotGarb(t)
    total_collected: int = 0  # TotColl(t)
    undeclared: int = 0

    @property
    def actual(self) -> int:
        return self.total_generated - self.total_collected


class StoreError(Exception):
    """Raised on misuse of the object store (unknown oid, double create...)."""


class ObjectStore:
    """A partitioned object database heap with trace-driven semantics."""

    def __init__(self, config: StoreConfig | None = None, iostats: IOStats | None = None) -> None:
        self.config = config or StoreConfig()
        self.iostats = iostats or IOStats()
        self.buffer = BufferPool(self.config.buffer_pages, self.iostats)
        self.partitions: list[Partition] = []
        #: The object table: one oid-indexed row of columns per object
        #: (placement, size, pointer dict, kind, dead flag), read through
        #: ``locate`` / ``row`` / ``rows``.
        self.placements = ObjectTable()
        self.roots: set[ObjectId] = set()
        # First-fit state: per-partition free bytes, the ascending list of
        # partitions that had room when last pruned, and one cursor per
        # object size into that list. What makes a scan from the front long
        # is slivers — entries with a few free bytes, fewer than the next
        # object's size — more than the full entries a prune removes. The
        # cursor invariant: every entry before ``_fit_cursor[size]`` has
        # fewer than ``size`` free bytes. Bump allocation only shrinks free
        # bytes, so a scan may start at the cursor and leave it where it
        # placed. Whatever grows free bytes or shifts list positions drops
        # them all: ``compact_partition`` and ``expunge`` (before
        # ``_reopen_partition`` inserts), and ``_prune_open_partitions``.
        self._partition_free: list[int] = []
        self._open_partitions: list[PartitionId] = []
        self._open_set: set[PartitionId] = set()
        self._open_stale = 0
        self._fit_cursor: dict[int, int] = {}
        #: Allocation pinning: objects created but not yet referenced by any
        #: pointer or root registration. The application still holds a handle
        #: to such objects (it is about to link them), so the collector must
        #: treat them as roots — otherwise a collection firing between a
        #: create and the pointer write that links it could reclaim live data.
        self.unlinked: set[ObjectId] = set()
        self.garbage = GarbageAccounts()
        #: Oracle per-partition garbage, in bytes (dead, not yet collected).
        self.dead_bytes: dict[PartitionId, int] = {}
        #: Global pointer-overwrite counter — the policies' overwrite clock.
        self.pointer_overwrites = 0
        #: Sum of the partitions' FGS counters (Σ_p PO(p), §2.4), kept in
        #: step by every writer of a ``Partition.pointer_overwrites`` so the
        #: estimators and the sampler read it without a pass over partitions.
        self.pending_overwrites = 0
        #: Monotone count of bytes ever allocated by the application — the
        #: allocation clock used by [YNY94]-style trigger policies.
        self.bytes_allocated_total = 0
        #: Pointer writes that did not replace an existing non-null pointer.
        self.pointer_stores = 0
        #: Pointer slots ever written, null ones included, over all stored
        #: objects (Σ ``len(row.pointers)``),
        #: a running total so a checkpoint's modelled size costs no heap pass.
        self.slot_count = 0
        self._next_oid: ObjectId = 1
        # Running totals so db_size stays O(1); it is sampled at every event.
        self._allocated_bytes = 0
        #: Monotone remembered-set churn: inter-partition references ever
        #: added to / dropped from some ``Partition.incoming``. Their
        #: difference is the live boundary edge count.
        self.remembers_total = 0
        self.forgets_total = 0
        #: Per-partition trace epochs: bumped by every mutation that could
        #: change a partition's collection outcome — its resident set, its
        #: residents' pointer slots, or its conservative frontier (roots,
        #: allocation pins, remembered incoming references). The parallel
        #: collection scheduler (:mod:`repro.gc.parallel`) validates
        #: speculative traces against these counters: an unchanged epoch
        #: proves a pre-computed survivor set is still exact.
        self.trace_epochs: list[int] = []
        #: Bumped once per partition compaction. Compaction relocates every
        #: survivor, which moves the fix-up pages of *other* partitions whose
        #: boundary sources live here — one global counter conservatively
        #: invalidates every outstanding speculative trace.
        self.compaction_epoch = 0

    # ------------------------------------------------------------------
    # Application operations
    # ------------------------------------------------------------------

    def create(
        self,
        size: int,
        kind: ObjectKind = ObjectKind.GENERIC,
        pointers: Optional[dict[str, Optional[ObjectId]]] = None,
        oid: Optional[ObjectId] = None,
    ) -> ObjectId:
        """Allocate a new object and initialise its pointer slots.

        Initial pointer values are *stores*, not overwrites — they replace
        nothing, so they advance neither the overwrite clock nor any
        partition's FGS counter.

        Returns the new object's id.
        """
        if oid is None:
            oid = self._next_oid
        if oid in self.placements:
            raise StoreError(f"object {oid} already exists")
        self._next_oid = max(self._next_oid, oid + 1)
        if size <= 0:
            raise ValueError(f"object size must be positive, got {size}")

        pid, offset = self._place(oid, size)
        self.bytes_allocated_total += size
        slots = self.placements.insert(oid, pid, offset, size, kind)
        self.unlinked.add(oid)
        self.trace_epochs[pid] += 1
        self._touch_object_pages(oid, IOCategory.APPLICATION, dirty=True)

        if pointers:
            for slot, target in pointers.items():
                if target is not None:
                    self._validate_target(target)
                slots[slot] = target  # a fresh row's dict: no capture shares it
                self.slot_count += 1
                if target is not None:
                    if target in self.unlinked:
                        self._unpin(target)
                    self._remember_edge(oid, target)
        return oid

    def access(self, oid: ObjectId) -> StoredObject:
        """Read an object (touches its pages clean through the buffer)."""
        self._require(oid)
        self._touch_object_pages(oid, IOCategory.APPLICATION, dirty=False)
        return self.placements.row(oid)

    def update(self, oid: ObjectId) -> None:
        """Modify an object's non-pointer data (dirty page touch only)."""
        self._require(oid)
        self._touch_object_pages(oid, IOCategory.APPLICATION, dirty=True)

    def write_pointer(
        self,
        src: ObjectId,
        slot: str,
        target: Optional[ObjectId],
        dies: Sequence[ObjectId] = (),
    ) -> None:
        """Write pointer ``slot`` of ``src`` to ``target``.

        If the slot previously held a non-null pointer this is an *overwrite*:
        the global overwrite clock advances and the FGS counter of the
        partition holding the old target is incremented (§2.4: "FGS values of
        partitions are increased when pointers into those partitions are
        overwritten").

        ``dies`` lists objects that become globally unreachable as a result of
        this write; the workload generator computes it constructively and the
        store uses it only for oracle accounting — never for collection.
        """
        pointers = self._writable(src)
        if target is not None:
            self._validate_target(target)

        old = pointers.get(slot, _NO_SLOT)
        if old is _NO_SLOT:
            self.slot_count += 1
            old = None
        pointers[slot] = target
        src_pid = self.placements.part_of(src)
        if src_pid >= 0:
            self.trace_epochs[src_pid] += 1
        self._touch_object_pages(src, IOCategory.APPLICATION, dirty=True)

        if old is not None:
            self.pointer_overwrites += 1
            old_pid = self.placements.part_of(old)
            if old_pid >= 0:
                self.partitions[old_pid].pointer_overwrites += 1
                self.pending_overwrites += 1
            self._forget_edge(src, old)
        else:
            self.pointer_stores += 1

        if target is not None:
            if target in self.unlinked:
                self._unpin(target)
            self._remember_edge(src, target)

        for victim in dies:
            self._declare_dead(victim)

    def register_root(self, oid: ObjectId) -> None:
        """Add an object to the database's persistent root set."""
        self._require(oid)
        pid = self.placements.part_of(oid)
        self.roots.add(oid)
        if pid >= 0:
            self.trace_epochs[pid] += 1
        if oid in self.unlinked:
            self._unpin(oid)

    def declare_dead(self, oid: ObjectId) -> None:
        """Mark ``oid`` as oracle-dead without a pointer overwrite.

        Checkpoint restoration (:mod:`repro.tx.recovery`) uses this to
        reinstate the dead/live split a snapshot captured; missing or
        already-dead oids are tolerated, matching ``dies`` semantics.
        """
        self._declare_dead(oid)

    def release_pin(self, oid: ObjectId) -> None:
        """Drop ``oid``'s allocation pin without referencing it.

        Checkpoint restoration uses this for objects that historically lost
        their last incoming pointer: rebuilding the graph leaves them
        pinned (never referenced during replay) even though the original
        store had unpinned them. No-op when ``oid`` is not pinned.
        """
        if oid in self.unlinked:
            self._unpin(oid)

    # ------------------------------------------------------------------
    # Transaction-rollback support
    #
    # These primitives exist for the transaction manager (repro.tx): they
    # physically revert application operations without advancing the
    # overwrite clock or FGS counters — an aborted transaction must leave
    # no trace in the policies' garbage-creation signals.
    # ------------------------------------------------------------------

    def undo_pointer_write(
        self,
        src: ObjectId,
        slot: str,
        old_target: Optional[ObjectId],
        slot_existed: bool,
    ) -> None:
        """Physically revert one pointer write (rollback).

        Restores the slot's previous value (or removes a slot that had never
        been written), fixes remembered sets, and dirties the page — rollback
        is real I/O — but records neither an overwrite nor a store.
        """
        pointers = self._writable(src)
        current = pointers.get(slot)
        if current is not None:
            self._forget_edge(src, current)
        if slot_existed:
            pointers[slot] = old_target
            if old_target is not None:
                self._remember_edge(src, old_target)
        elif pointers.pop(slot, _NO_SLOT) is not _NO_SLOT:
            self.slot_count -= 1
        src_pid = self.placements.part_of(src)
        if src_pid >= 0:
            self.trace_epochs[src_pid] += 1
        self._touch_object_pages(src, IOCategory.APPLICATION, dirty=True)

    def resurrect(self, oid: ObjectId) -> None:
        """Revert a death declaration (the disconnecting write was undone)."""
        self._require(oid)
        size = self.placements.set_dead(oid, False)
        if not size:
            raise StoreError(f"object {oid} is not dead; cannot resurrect")
        self.garbage.total_generated -= size
        pid = self.partition_of(oid)
        self.dead_bytes[pid] = self.dead_bytes.get(pid, 0) - size

    def undo_register_root(self, oid: ObjectId, was_pinned: bool) -> None:
        """Revert a root registration: drop the root and, if registering
        took the object's allocation pin, give the pin back."""
        self.roots.discard(oid)
        if was_pinned:
            self.unlinked.add(oid)
        pid = self.placements.part_of(oid)
        if pid >= 0:
            self.trace_epochs[pid] += 1

    def restore_pin(self, oid: ObjectId) -> None:
        """Give back the allocation pin a rolled-back pointer write took."""
        self.unlinked.add(oid)
        pid = self.placements.part_of(oid)
        if pid >= 0:
            self.trace_epochs[pid] += 1

    def expunge(self, oid: ObjectId) -> None:
        """Remove an object whose creation is being rolled back.

        Unlike collector reclamation this is not garbage collection — the
        allocation never committed — so no garbage totals change. The
        object's space is only recovered at the partition's next compaction
        (bump allocation cannot un-allocate mid-extent).
        """
        pointers = self.placements.pointers(oid)
        if pointers is None:
            raise StoreError(f"unknown object {oid}")
        if not self.placements.alive(oid):
            raise StoreError(f"object {oid} is dead; expected a live rollback target")
        pid, offset, size = self.placements.locate(oid)
        self.placements.discard(oid)
        partition = self.partitions[pid]
        partition.residents.discard(oid)
        if offset + size == partition.fill:
            # The common rollback case: the newest allocation — reclaim the
            # tail of the bump extent directly.
            partition.fill -= size
            self._allocated_bytes -= size
            self._partition_free[pid] += size
            self._fit_cursor.clear()  # free bytes grew: a cursor may skip them
            self._reopen_partition(partition.pid)
        for target in pointers.values():
            if target is not None:
                self._forget_edge(oid, target)
        self.slot_count -= len(pointers)
        dropped = partition.drop_incoming(oid)
        if dropped:
            self.forgets_total += sum(dropped.values())
        self.roots.discard(oid)
        self.unlinked.discard(oid)
        self.trace_epochs[pid] += 1

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def attach_fault_injector(self, injector) -> None:
        """Wire a :class:`~repro.faults.injector.FaultInjector` into the
        storage layer.

        After attachment every I/O operation passes through the injector's
        ``io.read`` / ``io.write`` sites and every dirty page write-back
        through its ``page.write`` site, so plans can fail individual
        storage operations or tear page writes deterministically.
        """
        self.iostats.fault_hook = injector.fire_io
        self.buffer.write_hook = injector.fire_page_write

    # ------------------------------------------------------------------
    # Geometry and metrics
    # ------------------------------------------------------------------

    def partition_of(self, oid: ObjectId) -> PartitionId:
        """The partition currently holding ``oid``."""
        pid = self.placements.part_of(oid)
        if pid < 0:
            raise StoreError(f"object {oid} has no placement")
        return pid

    def pages_of(self, oid: ObjectId) -> list[PageId]:
        """Page ids the object currently spans."""
        loc = self.placements.locate(oid)
        if loc is None:
            raise StoreError(f"object {oid} has no placement")
        pid, offset, size = loc
        page_size = self.config.page_size
        last = (offset + size - 1) // page_size
        return [(pid, index) for index in range(offset // page_size, last + 1)]

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    @property
    def db_size(self) -> int:
        """Bump-allocated bytes in all partitions: live plus uncollected
        garbage, the denominator of the paper's garbage percentages."""
        return self._allocated_bytes

    @property
    def live_bytes(self) -> int:
        """Bytes of objects not declared dead."""
        return sum(obj.size for obj in self.placements.rows() if not obj.dead)

    @property
    def actual_garbage_bytes(self) -> int:
        """Oracle ``ActGarb(t)``: declared-dead bytes not yet reclaimed."""
        return self.garbage.actual

    @property
    def garbage_fraction(self) -> float:
        """Oracle garbage percentage of the database (0 when the DB is empty)."""
        size = self.db_size
        if size == 0:
            return 0.0
        return self.actual_garbage_bytes / size

    def partition_garbage_bytes(self, pid: PartitionId) -> int:
        """Oracle declared-dead bytes resident in partition ``pid``."""
        return self.dead_bytes.get(pid, 0)

    def remembered_stats(self) -> dict[str, int]:
        """Frontier sizes and lifetime remembered-set churn, the store's
        ``gc.remembered.*`` gauges. ``sources`` (distinct boundary sources,
        summed over partitions) walks every ``incoming``: read it once per
        run, not per collection."""
        return {
            "edges": self.remembers_total - self.forgets_total,
            "sources": sum(
                len(set().union(*part.incoming.values())) for part in self.partitions
            ),
            "roots": len(self.roots),
            "pins": len(self.unlinked),
            "remembers_total": self.remembers_total,
            "forgets_total": self.forgets_total,
        }

    # ------------------------------------------------------------------
    # Collector support API
    # ------------------------------------------------------------------

    def partition_roots(self, pid: PartitionId) -> set[ObjectId]:
        """Conservative root set for collecting partition ``pid``.

        Roots are residents that are (a) in the database root set, (b)
        allocation-pinned, or (c) remembered as targets of any external
        reference. External referents may themselves be garbage in other
        partitions — that conservatism is inherent to partitioned collection
        and produces realistic floating garbage.

        O(partition + boundary): a set intersection iterates its smaller
        operand, and every ``incoming`` key is an externally referenced
        resident (``forget`` prunes empty entries, reclamation drops entries
        of reclaimed residents). The tests compare this set against a
        whole-heap scan (``tests/frontier_oracle.py``).
        """
        partition = self.partitions[pid]
        residents = partition.residents
        roots = self.roots & residents
        roots |= self.unlinked & residents
        roots.update(partition.incoming)
        return roots

    def intra_partition_targets(self, oid: ObjectId, pid: PartitionId) -> Iterable[ObjectId]:
        """Non-null pointer targets of ``oid`` that reside in partition ``pid``.

        The collector traverses only these (§3.1: "pointers leaving the
        collected partition are not traversed").
        """
        pointers = self.placements.pointers(oid)
        if pointers is None:
            raise StoreError(f"unknown object {oid}")
        part_of = self.placements.part_of
        for target in pointers.values():
            if target is not None and part_of(target) == pid:
                yield target

    def plan_compaction(
        self,
        pid: PartitionId,
        survivors: Sequence[ObjectId],
        unreached: Optional[set[ObjectId]] = None,
    ) -> CompactionPlan:
        """Derive what :meth:`compact_partition` needs from current state.

        Read-only, and the one plan builder. ``unreached`` is the victim's
        residents the trace never reached — the leftover work set of
        :func:`~repro.storage.traversal.cheney_trace` — and is taken as
        the reclaimed list as it is. The layout is a prefix sum of
        survivor sizes in copy order, read from the placement table's
        size column (one numpy gather when the table has no overflow
        entries, since every survivor then lives in the dense columns),
        never from the object table.

        A caller with survivors but no trace (``collect_global``, a bare
        :meth:`compact_partition`) passes no ``unreached``; it is derived
        here, after checking that the survivors are distinct residents of
        the partition — the front door's only work, and the reason a trace
        does not need it: Cheney's survivors are distinct residents by
        construction.

        Reclamation's reads are taken here too, so the compaction itself
        only writes: each reclaimed object's outgoing cross-partition
        edges and slot count, whether any of them is on the victim's
        frontier, and the new resident set. A row that is not the
        victim's ends the walk; the compaction refuses that object.

        Also runs at the parallel scheduler's pump points, between events
        ahead of the pause; the epochs decide whether the plan is still
        the one the pause would build.
        """
        partition = self.partitions[pid]
        if unreached is None:
            residents = partition.residents
            survivors = list(survivors)
            survivor_set = set(survivors)
            unknown = survivor_set - residents
            if unknown:
                raise StoreError(
                    f"survivors {sorted(unknown)} are not residents of partition {pid}"
                )
            if len(survivor_set) < len(survivors):
                repeated = sorted(oid for oid, n in Counter(survivors).items() if n > 1)
                raise StoreError(
                    f"survivors {repeated} are listed more than once for partition {pid}"
                )
            unreached = residents - survivor_set
        else:
            survivor_set = set(survivors)
        reclaimed = list(unreached)
        placements = self.placements
        parts = placements.parts
        ptrs = placements.ptrs
        dense = len(parts)
        sparse = placements.overflow
        rows = placements.overflow_rows
        forgets: list[tuple[PartitionId, ObjectId, ObjectId]] = []
        add_forget = forgets.append
        slot_counts: list[int] = []
        add_slots = slot_counts.append
        for oid in reclaimed:
            if 0 <= oid < dense:
                if parts[oid] != pid:
                    break
                pointers = ptrs[oid]
            else:
                entry = sparse.get(oid)
                if entry is None or entry[0] != pid:
                    break
                pointers = rows[oid][0]
            add_slots(len(pointers))
            for target in pointers.values():
                if target is None:
                    continue
                if 0 <= target < dense:
                    tgt_pid = parts[target]
                else:
                    entry = sparse.get(target)
                    tgt_pid = entry[0] if entry is not None else -1
                if tgt_pid >= 0 and tgt_pid != pid:
                    add_forget((tgt_pid, oid, target))
        frontier = not (
            partition.incoming.keys().isdisjoint(reclaimed)
            and self.roots.isdisjoint(reclaimed)
            and self.unlinked.isdisjoint(reclaimed)
        )
        overflow: list[tuple[ObjectId, tuple[int, int, int]]] = []
        dense_oids: Any
        dense_offs: Any
        if sparse:
            # Sparse or negative oids somewhere in the heap: split the
            # survivors by representation. Classification by DENSE_CEILING
            # (not current column length) is stable — a resident survivor
            # already has its placement where its oid selects.
            sizes = placements.sizes
            dense_oids = []
            dense_offs = []
            fill = 0
            for oid in survivors:
                if 0 <= oid < DENSE_CEILING:
                    size = sizes[oid]
                    dense_oids.append(oid)
                    dense_offs.append(fill)
                else:
                    size = sparse[oid][2]
                    overflow.append((oid, (pid, fill, size)))
                fill += size
            if _np is not None:
                dense_oids = _np.array(dense_oids, dtype=_np.int64)
                dense_offs = _np.array(dense_offs, dtype=_np.int64)
        elif _np is not None:
            dense_oids = _np.fromiter(survivors, dtype=_np.int64, count=len(survivors))
            widths = _np.frombuffer(placements.sizes, dtype=_np.int64)[dense_oids]
            ends = widths.cumsum()
            dense_offs = ends - widths
            # A python int: the fill reaches summaries and checkpoints.
            fill = int(ends[-1]) if len(ends) else 0
        else:
            dense_oids = survivors
            dense_offs = list(
                accumulate(map(placements.sizes.__getitem__, survivors), initial=0)
            )
            fill = dense_offs.pop()
        return CompactionPlan(
            survivors=survivors,
            reclaimed=reclaimed,
            fill=fill,
            dense_oids=dense_oids,
            dense_offs=dense_offs,
            overflow=overflow,
            residents=survivor_set,
            forgets=forgets,
            slot_counts=slot_counts,
            frontier=frontier,
        )

    def compact_partition(
        self,
        pid: PartitionId,
        survivors: Sequence[ObjectId],
        plan: Optional[CompactionPlan] = None,
    ) -> int:
        """Rewrite partition ``pid`` to contain exactly ``survivors`` in order.

        Every resident not in ``survivors`` is reclaimed. Returns the number
        of bytes reclaimed. The caller (the collector) is responsible for
        charging I/O and invalidating buffered pages.

        There is one route, and it only writes: ``plan`` holds every read
        (:class:`CompactionPlan`). ``plan`` is built by
        :meth:`plan_compaction` from these exact survivors and *validated
        against unchanged trace epochs*; a caller that brings none gets one
        built here, inside the pause, by the same method's front door —
        which is also where survivors that are not residents, or are listed
        twice, are refused, after nothing but the two epoch bumps.

        Reclamation is one loop over ``plan.reclaimed`` that empties each
        row in the table's raw columns and splits the bytes by dead flag
        (read here: a death declared since the plan bumps no epoch), then
        the planned forgets. The ledgers — dead bytes, garbage totals, row
        count, slot count, forget churn — are written once, in a
        ``finally``, so a wrong-partition object (refused before its row is
        touched) still leaves the objects reclaimed before it accounted
        for. Relocation swaps in the plan's resident set and scatters the
        planned offsets: survivors keep their partition and size columns.
        """
        partition = self.partitions[pid]
        self.compaction_epoch += 1
        self.trace_epochs[pid] += 1
        plan = plan or self.plan_compaction(pid, survivors)
        table = self.placements
        parts = table.parts
        sizes = table.sizes
        ptrs = table.ptrs
        kinds = table.kinds
        dead_col = table.dead
        dense = len(parts)
        overflow = table.overflow
        reclaimed = plan.reclaimed
        count = dead = undeclared = 0
        try:
            for oid in reclaimed:
                if 0 <= oid < dense:
                    if parts[oid] != pid:
                        raise StoreError(f"object {oid} reclaimed from wrong partition")
                    # ObjectTable.discard, column by column.
                    parts[oid] = -1
                    ptrs[oid] = None
                    kinds[oid] = 0
                    if dead_col[oid]:
                        dead_col[oid] = 0
                        dead += sizes[oid]
                    else:
                        undeclared += sizes[oid]
                else:
                    entry = overflow.get(oid)
                    if entry is None or entry[0] != pid:
                        raise StoreError(f"object {oid} reclaimed from wrong partition")
                    del overflow[oid]
                    if table.overflow_rows.pop(oid)[2]:
                        dead += entry[2]
                    else:
                        undeclared += entry[2]
                count += 1
        finally:
            forgets = plan.forgets
            slot_counts = plan.slot_counts
            done = reclaimed
            if count < len(reclaimed):  # refused: only what was reclaimed
                done = reclaimed[:count]
                slot_counts = slot_counts[:count]
                kept = set(done)
                forgets = [edge for edge in forgets if edge[1] in kept]
            # Outgoing references of the reclaimed: Partition.forget each.
            partitions = self.partitions
            forgot = 0
            for tgt_pid, src, target in forgets:
                if partitions[tgt_pid].forget(src, target):
                    forgot += 1
            if plan.frontier:
                # Incoming references to the reclaimed, and their root and
                # pin entries: Partition.drop_incoming, roots / unlinked
                # discards.
                incoming = partition.incoming
                for oid in incoming.keys() & done:
                    forgot += sum(incoming.pop(oid).values())
                for frontier in (self.roots, self.unlinked):
                    if not frontier.isdisjoint(done):
                        frontier.difference_update(done)
            table._count -= count
            self.forgets_total += forgot
            self.slot_count -= sum(slot_counts)
            garbage = self.garbage
            if dead:
                self.dead_bytes[pid] = self.dead_bytes.get(pid, 0) - dead
            if undeclared:
                # The workload never declared these objects dead, yet the
                # collector found them unreachable within their partition.
                # Fold them into both totals so ActGarb stays consistent,
                # and count them for tests.
                garbage.total_generated += undeclared
                garbage.undeclared += undeclared
            garbage.total_collected += dead + undeclared

        fill_before = partition.fill
        self.pending_overwrites -= partition.pointer_overwrites
        partition.reset_for_compaction()
        partition.residents = plan.residents
        partition.fill = plan.fill
        if _np is not None and len(plan.dense_oids):
            _np.frombuffer(table.offs, dtype=_np.int64)[plan.dense_oids] = plan.dense_offs
        else:
            offs = table.offs
            for oid, off in zip(plan.dense_oids, plan.dense_offs):
                offs[oid] = off
        for oid, entry in plan.overflow:
            overflow[oid] = entry
        # The allocated-bytes ledger shrinks by the whole recovered extent:
        # reclaimed objects plus any holes left by transaction rollbacks.
        self._allocated_bytes -= fill_before - partition.fill
        self._partition_free[pid] = partition.capacity - partition.fill
        self._fit_cursor.clear()  # free bytes grew: a cursor may skip them
        if partition.fill < partition.capacity:
            self._reopen_partition(pid)
        return dead + undeclared

    def external_source_pages(self, pid: PartitionId) -> set[PageId]:
        """Pages of external objects holding pointers into partition ``pid``.

        These pages need a read-modify-write during collection because the
        objects they reference are relocated by compaction.

        One C-level union of the per-target source dicts gives the distinct
        sources, so each source object is located once — not once per
        resident it references.
        """
        pages: set[PageId] = set()
        page_size = self.config.page_size
        # ObjectTable.locate, column by column: one lookup per source.
        table = self.placements
        parts, offs, sizes = table.parts, table.offs, table.sizes
        dense = len(parts)
        for src in set().union(*self.partitions[pid].incoming.values()):
            if 0 <= src < dense:
                src_pid = parts[src]
                if src_pid < 0:
                    continue
                offset = offs[src]
                size = sizes[src]
            else:
                loc = table.overflow.get(src)
                if loc is None:
                    continue
                src_pid, offset, size = loc
            first = offset // page_size
            last = (offset + size - 1) // page_size
            if first == last:  # most objects sit inside one page
                pages.add((src_pid, first))
            else:
                pages.update((src_pid, index) for index in range(first, last + 1))
        return pages

    # ------------------------------------------------------------------
    # Verification helpers (used by tests and oracle baselines)
    # ------------------------------------------------------------------

    def reachable_from_roots(self) -> set[ObjectId]:
        """Full-database reachability from the persistent roots."""
        return self.reachable_from(self.roots)

    def reachable_from(self, roots: Iterable[ObjectId]) -> set[ObjectId]:
        """Full-database reachability from an arbitrary root set.

        One whole-heap pass of the shared traversal helper
        (:func:`~repro.storage.traversal.breadth_first_order`) — the
        verification oracles and ``collect_global`` call this over the
        entire database.
        """
        return set(breadth_first_order(self.placements, roots))

    def check_death_annotations(self) -> set[ObjectId]:
        """Objects whose dead flag disagrees with true global reachability.

        Empty for a correct workload generator. Exposed so integration tests
        can assert annotation fidelity on real traces.
        """
        reachable = self.reachable_from_roots()
        rows = self.placements.rows()
        return {obj.oid for obj in rows if obj.dead == (obj.oid in reachable)}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require(self, oid: ObjectId) -> None:
        if oid not in self.placements:
            raise StoreError(f"unknown object {oid}")

    def _writable(self, oid: ObjectId) -> dict[str, Optional[ObjectId]]:
        """``oid``'s pointer dict, safe to write in place (copy-on-write).

        ``build_checkpoint`` captures the object table, sharing every
        pointer dict with it; :meth:`ObjectTable.writable` gives the row a
        private copy on its first write after that, so a checkpoint never
        sees a later write.
        """
        pointers = self.placements.writable(oid)
        if pointers is None:
            raise StoreError(f"unknown object {oid}")
        return pointers

    def _validate_target(self, target: ObjectId) -> None:
        if target not in self.placements:
            raise StoreError(f"pointer target {target} does not exist")

    def _place(self, oid: ObjectId, size: int) -> tuple[PartitionId, int]:
        """First-fit placement; grows the database when nothing fits (§3.1).

        Scans the open-partition list (ascending pids, so placement
        decisions match a full scan exactly) from this size's fit cursor
        and leaves the cursor where the object went, bump-allocates, and
        keeps the per-partition free-byte ledger in step. Returns
        ``(pid, offset)``.
        """
        self._allocated_bytes += size
        free = self._partition_free
        open_parts = self._open_partitions
        at = self._fit_cursor.get(size, 0)
        try:
            while free[pid := open_parts[at]] < size:
                at += 1
        except IndexError:  # nothing fits: the new partition is entry ``at``
            partition = self._grow_partition(size)
            pid = partition.pid
        else:
            partition = self.partitions[pid]
        self._fit_cursor[size] = at
        offset = partition.bump(oid, size)
        left = free[pid] - size
        free[pid] = left
        if left <= 0:
            self._open_stale += 1
            if self._open_stale >= _OPEN_LIST_STALE_LIMIT:
                self._prune_open_partitions()
        return pid, offset

    def _grow_partition(self, size: int) -> Partition:
        """Append a fresh partition big enough for a ``size``-byte object."""
        capacity = max(self.config.partition_size, size)
        partition = Partition(pid=len(self.partitions), capacity=capacity)
        self.partitions.append(partition)
        self._partition_free.append(capacity)
        self.trace_epochs.append(0)
        self._open_partitions.append(partition.pid)
        self._open_set.add(partition.pid)
        return partition

    def _reopen_partition(self, pid: PartitionId) -> None:
        """Put ``pid`` back on the open list (space was recovered in it).

        The caller grew its free bytes and dropped the fit cursors, which
        also covers the list positions an insert shifts.
        """
        if pid not in self._open_set:
            insort(self._open_partitions, pid)
            self._open_set.add(pid)

    def _prune_open_partitions(self) -> None:
        # Slice-assign and clear: the batched replay interpreter aliases the
        # list and the cursors, so the rebuild must preserve object identity.
        free = self._partition_free
        self._open_partitions[:] = [pid for pid in self._open_partitions if free[pid] > 0]
        self._open_set.clear()
        self._open_set.update(self._open_partitions)
        self._open_stale = 0
        self._fit_cursor.clear()

    def _touch_object_pages(self, oid: ObjectId, category: IOCategory, dirty: bool) -> None:
        # Inlined pages_of over the raw placement columns: one dict probe or
        # dataclass allocation per touch matters at trace scale.
        placements = self.placements
        parts = placements.parts
        if 0 <= oid < len(parts) and parts[oid] >= 0:
            pid = parts[oid]
            offset = placements.offs[oid]
            size = placements.sizes[oid]
        else:
            loc = placements.locate(oid)
            if loc is None:
                raise StoreError(f"object {oid} has no placement")
            pid, offset, size = loc
        page_size = self.config.page_size
        touch = self.buffer.touch
        first = offset // page_size
        last = (offset + size - 1) // page_size
        for index in range(first, last + 1):
            touch((pid, index), category, dirty=dirty)

    def _unpin(self, oid: ObjectId) -> None:
        """Drop ``oid``'s allocation pin (it became referenced or a root)."""
        pid = self.placements.part_of(oid)
        self.unlinked.discard(oid)
        if pid >= 0:
            self.trace_epochs[pid] += 1

    def _remember_edge(self, src: ObjectId, target: ObjectId) -> None:
        src_pid = self.partition_of(src)
        tgt_pid = self.placements.part_of(target)
        if tgt_pid < 0 or tgt_pid == src_pid:
            return
        self.partitions[tgt_pid].remember(src, target)
        self.remembers_total += 1
        self.trace_epochs[tgt_pid] += 1

    def _forget_edge(self, src: ObjectId, target: ObjectId) -> None:
        tgt_pid = self.placements.part_of(target)
        if tgt_pid < 0:
            return
        src_pid = self.placements.part_of(src)
        if src_pid >= 0 and src_pid == tgt_pid:
            return
        if self.partitions[tgt_pid].forget(src, target):
            self.forgets_total += 1
        self.trace_epochs[tgt_pid] += 1

    def _declare_dead(self, oid: ObjectId) -> None:
        size = self.placements.set_dead(oid, True)
        if not size:  # no such object, or already dead
            return
        self.garbage.total_generated += size
        pid = self.partition_of(oid)
        self.dead_bytes[pid] = self.dead_bytes.get(pid, 0) + size
