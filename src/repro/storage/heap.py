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
from repro.storage.objtable import DENSE_CEILING, PlacementTable
from repro.storage.partition import Partition, PartitionId, Placement
from repro.storage.traversal import breadth_first_order

try:  # optional: vectorised compaction layout (prefix sum) and offset scatter
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None

#: Stale (zero-free) entries tolerated on the open-partition list before a
#: prune pass rebuilds it; small enough that first-fit scans stay short,
#: large enough that back-to-back partition fills don't each pay a rebuild.
_OPEN_LIST_STALE_LIMIT = 16


@dataclass
class CompactionPlan:
    """What one ``compact_partition`` call derives read-only from state.

    The reclaimed list and the post-compaction layout (new offset per
    survivor), built by :meth:`ObjectStore.plan_compaction` and applied by
    :meth:`ObjectStore.compact_partition` — the only way a partition is
    ever compacted. A serial collection builds its plan inside the pause;
    the parallel scheduler builds it at a pump point, outside the pause,
    and such a plan is only valid while the victim's trace epoch and the
    global compaction epoch are unchanged (the scheduler validates both
    before use): every input the plan froze is then provably what an
    in-pause plan would read.
    """

    #: Survivors in copy order (the ``survivors`` argument the plan was
    #: built from).
    survivors: list[ObjectId]
    #: Residents to reclaim, in the iteration order of the residents set
    #: the plan was built against.
    reclaimed: list[ObjectId]
    #: Partition fill after relocation (sum of survivor sizes).
    fill: int
    #: Dense-column survivors and their new offsets (numpy int64 arrays
    #: when numpy is present, plain lists otherwise).
    dense_oids: Any
    dense_offs: Any
    #: Overflow-dict survivors: ``(oid, (pid, new_offset, size))``.
    overflow: list[tuple[ObjectId, tuple[int, int, int]]]


@dataclass(frozen=True)
class StoreConfig:
    """Geometry and accounting options for the object store.

    Attributes:
        page_size: Bytes per page (paper: 8 KB).
        partition_pages: Pages per partition (paper: 12, i.e. 96 KB).
        buffer_pages: Buffer pool capacity in pages (paper: one partition's
            worth, 12).
        db_size_mode: How ``db_size`` is measured. ``"allocated"`` counts the
            bump-allocated bytes in all partitions (live + uncollected
            garbage); ``"physical"`` counts full partition capacities. The
            paper's garbage percentages are relative fractions, for which the
            allocated measure is the meaningful denominator; physical mode is
            provided for storage-efficiency studies.
    """

    page_size: int = DEFAULT_PAGE_SIZE
    partition_pages: int = DEFAULT_BUFFER_PAGES
    buffer_pages: int = DEFAULT_BUFFER_PAGES
    db_size_mode: str = "allocated"

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.partition_pages <= 0:
            raise ValueError("partition_pages must be positive")
        if self.buffer_pages <= 0:
            raise ValueError("buffer_pages must be positive")
        if self.db_size_mode not in ("allocated", "physical"):
            raise ValueError(
                f"db_size_mode must be 'allocated' or 'physical', got {self.db_size_mode!r}"
            )

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
        self.objects: dict[ObjectId, StoredObject] = {}
        #: Flat structure-of-arrays placement columns (oid → partition /
        #: offset / size); mapping-compatible with the dict it replaced.
        self.placements = PlacementTable()
        self.roots: set[ObjectId] = set()
        # First-fit accelerator: per-partition free bytes plus the ascending
        # list of partitions that still have room. The list may carry stale
        # (full) entries between prune passes; scans skip them by free-byte
        # check, which is exact because object sizes are >= 1.
        self._partition_free: list[int] = []
        self._open_partitions: list[PartitionId] = []
        self._open_set: set[PartitionId] = set()
        self._open_stale = 0
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
        #: Monotone count of bytes ever allocated by the application — the
        #: allocation clock used by [YNY94]-style trigger policies.
        self.bytes_allocated_total = 0
        #: Pointer writes that did not replace an existing non-null pointer.
        self.pointer_stores = 0
        self._next_oid: ObjectId = 1
        # Running totals so db_size stays O(1); it is sampled at every event.
        self._allocated_bytes = 0
        self._physical_bytes = 0
        # Local import: repro.gc.remembered lives in the gc package, whose
        # __init__ imports the collector, which imports this module — a
        # module-scope import here would close that cycle mid-initialisation.
        from repro.gc.remembered import RememberedSetIndex

        #: Incremental per-partition frontier index (roots, allocation pins,
        #: distinct boundary sources) — kept in O(1) step by every mutator
        #: below, consumed by ``partition_roots`` / ``external_source_pages``.
        self.remembered = RememberedSetIndex()
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
        if oid in self.objects:
            raise StoreError(f"object {oid} already exists")
        self._next_oid = max(self._next_oid, oid + 1)

        obj = StoredObject(oid=oid, size=size, kind=kind)
        pid, offset = self._place(oid, size)
        self.bytes_allocated_total += size
        self.objects[oid] = obj
        self.placements.put(oid, pid, offset, size)
        self.unlinked.add(oid)
        self.remembered.pin(pid, oid)
        self.trace_epochs[pid] += 1
        self._touch_object_pages(oid, IOCategory.APPLICATION, dirty=True)

        if pointers:
            for slot, target in pointers.items():
                if target is not None:
                    self._validate_target(target)
                obj.pointers[slot] = target
                if target is not None:
                    if target in self.unlinked:
                        self._unpin(target)
                    self._remember_edge(oid, target)
        return oid

    def access(self, oid: ObjectId) -> StoredObject:
        """Read an object (touches its pages clean through the buffer)."""
        obj = self._require(oid)
        self._touch_object_pages(oid, IOCategory.APPLICATION, dirty=False)
        return obj

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
        src_obj = self._require(src)
        if target is not None:
            self._validate_target(target)

        old = src_obj.pointers.get(slot)
        src_obj.pointers[slot] = target
        src_pid = self.placements.part_of(src)
        if src_pid >= 0:
            self.trace_epochs[src_pid] += 1
        self._touch_object_pages(src, IOCategory.APPLICATION, dirty=True)

        if old is not None:
            self.pointer_overwrites += 1
            old_pid = self.placements.part_of(old)
            if old_pid >= 0:
                self.partitions[old_pid].pointer_overwrites += 1
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
        self.remembered.add_root(pid, oid)
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
        src_obj = self._require(src)
        current = src_obj.pointers.get(slot)
        if current is not None:
            self._forget_edge(src, current)
        if slot_existed:
            src_obj.pointers[slot] = old_target
            if old_target is not None:
                self._remember_edge(src, old_target)
        else:
            src_obj.pointers.pop(slot, None)
        src_pid = self.placements.part_of(src)
        if src_pid >= 0:
            self.trace_epochs[src_pid] += 1
        self._touch_object_pages(src, IOCategory.APPLICATION, dirty=True)

    def resurrect(self, oid: ObjectId) -> None:
        """Revert a death declaration (the disconnecting write was undone)."""
        obj = self._require(oid)
        if not obj.dead:
            raise StoreError(f"object {oid} is not dead; cannot resurrect")
        obj.dead = False
        self.garbage.total_generated -= obj.size
        pid = self.partition_of(oid)
        self.dead_bytes[pid] = self.dead_bytes.get(pid, 0) - obj.size

    def expunge(self, oid: ObjectId) -> None:
        """Remove an object whose creation is being rolled back.

        Unlike collector reclamation this is not garbage collection — the
        allocation never committed — so no garbage totals change. The
        object's space is only recovered at the partition's next compaction
        (bump allocation cannot un-allocate mid-extent).
        """
        obj = self._require(oid)
        if obj.dead:
            raise StoreError(f"object {oid} is dead; expected a live rollback target")
        placement = self.placements.pop(oid)
        del self.objects[oid]
        partition = self.partitions[placement.partition]
        partition.residents.discard(oid)
        if placement.offset + placement.size == partition.fill:
            # The common rollback case: the newest allocation — reclaim the
            # tail of the bump extent directly.
            partition.fill -= placement.size
            self._allocated_bytes -= placement.size
            self._partition_free[partition.pid] += placement.size
            self._reopen_partition(partition.pid)
        for target in obj.targets():
            self._forget_edge(oid, target)
        dropped = partition.drop_incoming(oid)
        if dropped:
            self.remembered.forget_sources(placement.partition, dropped)
        self.roots.discard(oid)
        self.unlinked.discard(oid)
        self.remembered.drop_object(placement.partition, oid)
        self.trace_epochs[placement.partition] += 1

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

    def placement_of(self, oid: ObjectId) -> Placement:
        """Current placement (partition, offset, size) of ``oid``."""
        return self._placement(oid)

    def pages_of(self, oid: ObjectId) -> list[PageId]:
        """Page ids the object currently spans."""
        placement = self._placement(oid)
        return [
            (placement.partition, index)
            for index in placement.pages(self.config.page_size)
        ]

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    @property
    def db_size(self) -> int:
        """Database size per the configured measure (see :class:`StoreConfig`)."""
        if self.config.db_size_mode == "physical":
            return self._physical_bytes
        return self._allocated_bytes

    @property
    def live_bytes(self) -> int:
        """Bytes of objects not declared dead."""
        return sum(obj.size for obj in self.objects.values() if not obj.dead)

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

    # ------------------------------------------------------------------
    # Collector support API
    # ------------------------------------------------------------------

    def partition_roots(self, pid: PartitionId) -> set[ObjectId]:
        """Conservative root set for collecting partition ``pid``.

        Roots are residents that are (a) in the database root set, or (b)
        remembered as targets of any external reference. External referents
        may themselves be garbage in other partitions — that conservatism is
        inherent to partitioned collection and produces realistic floating
        garbage.

        Derived from the incremental index in O(partition roots + boundary):
        the index partitions the global root / pin sets, and every
        ``incoming`` key is an externally referenced resident (``forget``
        prunes empty entries, reclamation drops entries of reclaimed
        residents). :func:`repro.gc.remembered.full_scan_frontier` is the
        whole-heap reference the tests compare this set against.
        """
        remembered = self.remembered
        roots = set(remembered.roots_in(pid))
        roots |= remembered.pins_in(pid)
        roots.update(self.partitions[pid].incoming)
        return roots

    def intra_partition_targets(self, oid: ObjectId, pid: PartitionId) -> Iterable[ObjectId]:
        """Non-null pointer targets of ``oid`` that reside in partition ``pid``.

        The collector traverses only these (§3.1: "pointers leaving the
        collected partition are not traversed").
        """
        obj = self._require(oid)
        part_of = self.placements.part_of
        for target in obj.targets():
            if part_of(target) == pid:
                yield target

    def plan_compaction(
        self, pid: PartitionId, survivors: Sequence[ObjectId]
    ) -> CompactionPlan:
        """Derive what :meth:`compact_partition` needs from current state.

        Read-only: the reclaimed list (the residents set filtered in its
        own iteration order, which is the order reclamation runs in) and
        the layout, a prefix sum of survivor sizes in copy order — one
        vectorised pass when the placement table has no overflow entries,
        since every survivor then lives in the dense columns.

        Also runs at the parallel scheduler's pump points, ahead of the
        pause. Sizes come from ``objects[oid].size``; only
        :meth:`compact_partition`, inside the pause, views
        ``placements.offs``.
        """
        partition = self.partitions[pid]
        survivors = list(survivors)
        survivor_set = set(survivors)
        unknown = survivor_set - partition.residents
        if unknown:
            raise StoreError(
                f"survivors {sorted(unknown)} are not residents of partition {pid}"
            )
        reclaimed = [oid for oid in partition.residents if oid not in survivor_set]
        objects = self.objects
        sizes = [objects[oid].size for oid in survivors]
        overflow: list[tuple[ObjectId, tuple[int, int, int]]] = []
        dense_oids: Any
        dense_offs: Any
        if self.placements.overflow:
            # Sparse or negative oids somewhere in the heap: split the
            # survivors by representation. Classification by DENSE_CEILING
            # (not current column length) is stable — a resident survivor
            # already has its placement where its oid selects.
            dense_oids = []
            dense_offs = []
            fill = 0
            for oid, size in zip(survivors, sizes):
                if 0 <= oid < DENSE_CEILING:
                    dense_oids.append(oid)
                    dense_offs.append(fill)
                else:
                    overflow.append((oid, (pid, fill, size)))
                fill += size
            if _np is not None:
                dense_oids = _np.array(dense_oids, dtype=_np.int64)
                dense_offs = _np.array(dense_offs, dtype=_np.int64)
        elif _np is not None:
            widths = _np.array(sizes, dtype=_np.int64)
            ends = widths.cumsum()
            dense_oids = _np.array(survivors, dtype=_np.int64)
            dense_offs = ends - widths
            # A python int: the fill reaches summaries and checkpoints.
            fill = int(ends[-1]) if sizes else 0
        else:
            dense_oids = survivors
            dense_offs = list(accumulate(sizes, initial=0))
            fill = dense_offs.pop()
        return CompactionPlan(
            survivors=survivors,
            reclaimed=reclaimed,
            fill=fill,
            dense_oids=dense_oids,
            dense_offs=dense_offs,
            overflow=overflow,
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

        There is one route: reclaim ``plan.reclaimed`` in bulk, then
        relocate by re-inserting the survivors into the residents set in
        copy order and scattering the planned offsets (survivors keep their
        partition and size columns through a compaction). ``plan`` is a
        :class:`CompactionPlan` built by :meth:`plan_compaction` from these
        exact survivors and *validated against unchanged trace epochs*; a
        caller that brings none gets one built here, inside the pause, by
        the same method — which is also where survivors that are not
        residents are refused, after nothing but the two epoch bumps.
        """
        partition = self.partitions[pid]
        self.compaction_epoch += 1
        self.trace_epochs[pid] += 1
        plan = plan or self.plan_compaction(pid, survivors)
        reclaimed_bytes = self._reclaim_residents(pid, plan.reclaimed)

        fill_before = partition.fill
        partition.reset_for_compaction()
        # The same insertion history as bump-allocating each survivor in
        # turn, so the set iterates — and the next collection reclaims —
        # in the same order.
        partition.residents.update(plan.survivors)
        partition.fill = plan.fill
        placements = self.placements
        if _np is not None and len(plan.dense_oids):
            _np.frombuffer(placements.offs, dtype=_np.int64)[
                plan.dense_oids
            ] = plan.dense_offs
        else:
            offs = placements.offs
            for oid, off in zip(plan.dense_oids, plan.dense_offs):
                offs[oid] = off
        for oid, entry in plan.overflow:
            placements.overflow[oid] = entry
        # The allocated-bytes ledger shrinks by the whole recovered extent:
        # reclaimed objects plus any holes left by transaction rollbacks.
        self._allocated_bytes -= fill_before - partition.fill
        self._partition_free[pid] = partition.capacity - partition.fill
        if partition.fill < partition.capacity:
            self._reopen_partition(pid)
        return reclaimed_bytes

    def external_source_pages(self, pid: PartitionId) -> set[PageId]:
        """Pages of external objects holding pointers into partition ``pid``.

        These pages need a read-modify-write during collection because the
        objects they reference are relocated by compaction.

        The index aggregates distinct sources per partition, so each source
        object is visited once — not once per resident it references as the
        per-target ``incoming`` dicts would require.
        """
        pages: set[PageId] = set()
        page_size = self.config.page_size
        # PlacementTable.locate, column by column: one lookup per source.
        table = self.placements
        parts, offs, sizes = table.parts, table.offs, table.sizes
        dense = len(parts)
        for src in self.remembered.sources_in(pid):
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
        return set(breadth_first_order(self.objects, roots))

    def check_death_annotations(self) -> set[ObjectId]:
        """Objects whose dead flag disagrees with true global reachability.

        Empty for a correct workload generator. Exposed so integration tests
        can assert annotation fidelity on real traces.
        """
        reachable = self.reachable_from_roots()
        mismatched: set[ObjectId] = set()
        for oid, obj in self.objects.items():
            if obj.dead == (oid in reachable):
                mismatched.add(oid)
        return mismatched

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require(self, oid: ObjectId) -> StoredObject:
        obj = self.objects.get(oid)
        if obj is None:
            raise StoreError(f"unknown object {oid}")
        return obj

    def _placement(self, oid: ObjectId) -> Placement:
        placement = self.placements.get(oid)
        if placement is None:
            raise StoreError(f"object {oid} has no placement")
        return placement

    def _validate_target(self, target: ObjectId) -> None:
        if target not in self.objects:
            raise StoreError(f"pointer target {target} does not exist")

    def _place(self, oid: ObjectId, size: int) -> tuple[PartitionId, int]:
        """First-fit placement; grows the database when nothing fits (§3.1).

        Scans only the open-partition list (ascending pids, so placement
        decisions match a full scan exactly), bump-allocates, and keeps the
        per-partition free-byte ledger in step. Returns ``(pid, offset)``.
        """
        self._allocated_bytes += size
        free = self._partition_free
        for pid in self._open_partitions:
            if size <= free[pid]:
                partition = self.partitions[pid]
                break
        else:
            partition = self._grow_partition(size)
            pid = partition.pid
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
        self._physical_bytes += capacity
        self._partition_free.append(capacity)
        self.trace_epochs.append(0)
        self._open_partitions.append(partition.pid)
        self._open_set.add(partition.pid)
        return partition

    def _reopen_partition(self, pid: PartitionId) -> None:
        """Put ``pid`` back on the open list (space was recovered in it)."""
        if pid not in self._open_set:
            insort(self._open_partitions, pid)
            self._open_set.add(pid)

    def _prune_open_partitions(self) -> None:
        # Slice-assign: the batched replay interpreter aliases this list, so
        # the rebuild must preserve object identity.
        free = self._partition_free
        self._open_partitions[:] = [pid for pid in self._open_partitions if free[pid] > 0]
        self._open_set.clear()
        self._open_set.update(self._open_partitions)
        self._open_stale = 0

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
        self.remembered.unpin(pid, oid)
        if pid >= 0:
            self.trace_epochs[pid] += 1

    def _remember_edge(self, src: ObjectId, target: ObjectId) -> None:
        src_pid = self.partition_of(src)
        tgt_pid = self.placements.part_of(target)
        if tgt_pid < 0 or tgt_pid == src_pid:
            return
        self.partitions[tgt_pid].remember(src, target)
        self.remembered.remember_source(tgt_pid, src)
        self.trace_epochs[tgt_pid] += 1

    def _forget_edge(self, src: ObjectId, target: ObjectId) -> None:
        tgt_pid = self.placements.part_of(target)
        if tgt_pid < 0:
            return
        src_pid = self.placements.part_of(src)
        if src_pid >= 0 and src_pid == tgt_pid:
            return
        if self.partitions[tgt_pid].forget(src, target):
            self.remembered.forget_source(tgt_pid, src)
        self.trace_epochs[tgt_pid] += 1

    def _declare_dead(self, oid: ObjectId) -> None:
        obj = self.objects.get(oid)
        if obj is None or obj.dead:
            return
        obj.dead = True
        self.garbage.total_generated += obj.size
        pid = self.partition_of(oid)
        self.dead_bytes[pid] = self.dead_bytes.get(pid, 0) + obj.size

    def _reclaim_residents(self, pid: PartitionId, reclaimed: list[ObjectId]) -> int:
        """Bookkeeping for the objects a compaction of ``pid`` reclaims.

        One kernel over the whole list: placement rows are cleared in the
        raw columns, and the dead-byte, garbage-total and placement-count
        ledgers are accumulated as deltas and written once — in a
        ``finally``, so a wrong-partition object (put back, then refused)
        still leaves the ledgers of the objects reclaimed before it
        consistent. An object's own row is cleared before its outgoing
        edges are forgotten, and intra-partition targets were never
        remembered, so skipping them is observationally identical to
        forgetting every edge.

        Returns the bytes reclaimed.
        """
        objects = self.objects
        objects_pop = objects.pop
        placements = self.placements
        parts = placements.parts
        dense = len(parts)
        overflow = placements.overflow
        partitions = self.partitions
        # The partition is fixed, so Partition.drop_incoming and
        # RememberedSetIndex.drop_object resolve to one dict and two sets.
        drop_incoming = partitions[pid].incoming.pop
        remembered = self.remembered
        forget_source = remembered.forget_source
        forget_sources = remembered.forget_sources
        drop_root = remembered._roots.get(pid, set()).discard
        drop_pin = remembered._pins.get(pid, set()).discard
        roots_discard = self.roots.discard
        unlinked_discard = self.unlinked.discard
        count = dead = undeclared = 0
        try:
            for oid in reclaimed:
                obj = objects_pop(oid)
                if 0 <= oid < dense:
                    found = parts[oid] == pid
                    if found:
                        parts[oid] = -1
                else:
                    entry = overflow.get(oid)
                    found = entry is not None and entry[0] == pid
                    if found:
                        del overflow[oid]
                if not found:
                    objects[oid] = obj
                    raise StoreError(f"object {oid} reclaimed from wrong partition")
                count += 1
                if obj.dead:
                    dead += obj.size
                else:
                    undeclared += obj.size

                # Sever remembered-set state in both directions.
                for target in obj.pointers.values():
                    if target is None:
                        continue
                    if 0 <= target < dense:
                        tgt_pid = parts[target]
                    else:
                        entry = overflow.get(target)
                        tgt_pid = entry[0] if entry is not None else -1
                    if tgt_pid < 0 or tgt_pid == pid:
                        continue
                    if partitions[tgt_pid].forget(oid, target):
                        forget_source(tgt_pid, oid)
                dropped = drop_incoming(oid, None)
                if dropped:
                    forget_sources(pid, dropped)
                roots_discard(oid)
                unlinked_discard(oid)
                drop_root(oid)
                drop_pin(oid)
        finally:
            placements._count -= count
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
        return dead + undeclared
