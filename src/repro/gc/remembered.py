"""Incremental reachability bookkeeping: per-partition remembered sets.

Partitioned collection (§3.1, [CWZ94]) is designed so one partition can be
collected *without* a global scan: the conservative root set of a partition
is (database roots ∩ residents) ∪ (allocation pins ∩ residents) ∪ (targets
of remembered inter-partition references). The store has always maintained
the third component incrementally (:attr:`~repro.storage.partition.
Partition.incoming`); this module adds the rest, so deriving a partition's
collection frontier costs O(partition + boundary) instead of intersecting
global sets against the resident set on every collection:

* **per-partition root membership** — which database roots live in each
  partition, maintained at ``register_root`` / reclamation;
* **per-partition allocation pins** — which unlinked (just-created, not yet
  referenced) objects live in each partition, maintained at ``create`` and
  at the pointer write / root registration that links them;
* **per-partition distinct boundary sources** — for each partition, the
  external objects holding at least one pointer into it, reference-counted
  across *all* their targets. The relocation fix-up pass needs each distinct
  source's pages exactly once, so aggregating per source (instead of the
  per-target source dicts of ``Partition.incoming``) makes that derivation
  linear in the number of distinct sources.

Every index update is O(1) and happens at the existing mutation seams of
:class:`~repro.storage.heap.ObjectStore` (pointer writes, creates, root
registrations, rollback primitives, reclamation) — the simulator's event
handlers never touch the index directly.

**Conservatism caveat** (the paper's stated limitation): remembered-in
references are treated as roots even when the referencing object is itself
garbage in another partition, so *cross-partition garbage cycles* are never
reclaimed by partition collection and are only recovered by
:meth:`~repro.gc.collector.CopyingCollector.collect_global`'s
whole-database marking pass. The oracle garbage
accounting and the estimator/telemetry layers all report against this same
definition of reclaimable garbage.

:func:`full_scan_frontier` is the from-scratch reference: it recomputes
the identical frontier by scanning the entire heap (O(heap)). No
production path calls it; the property tests compare the incremental
index against it at every mutation and collection point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.storage.object_model import ObjectId
from repro.storage.partition import PartitionId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.storage.buffer import PageId
    from repro.storage.heap import ObjectStore

#: Shared empty fallbacks so queries on never-touched partitions allocate
#: nothing. Callers must not mutate these.
_EMPTY_SET: frozenset[ObjectId] = frozenset()
_EMPTY_DICT: Mapping[ObjectId, int] = {}


class RememberedSetIndex:
    """Incrementally maintained per-partition collection-frontier state.

    One instance lives on each :class:`~repro.storage.heap.ObjectStore`
    (``store.remembered``) and mirrors three facts the store already tracks
    globally, keyed by partition: root membership, allocation pins, and
    distinct external boundary sources (reference-counted). The store's
    mutators keep it consistent; :mod:`repro.storage.validation` cross-checks
    it against a brute-force heap scan.
    """

    __slots__ = ("_roots", "_pins", "_sources", "edges", "remembers_total", "forgets_total")

    def __init__(self) -> None:
        self._roots: dict[PartitionId, set[ObjectId]] = {}
        self._pins: dict[PartitionId, set[ObjectId]] = {}
        #: Per partition: external source object → count of its pointer
        #: slots currently targeting any resident of the partition.
        self._sources: dict[PartitionId, dict[ObjectId, int]] = {}
        #: Live inter-partition references currently remembered (sum of all
        #: source counts).
        self.edges = 0
        #: Monotone churn counters: boundary-edge additions / removals over
        #: the store's lifetime (the ``gc.remembered.*`` telemetry).
        self.remembers_total = 0
        self.forgets_total = 0

    # ------------------------------------------------------------------
    # Root / pin membership
    # ------------------------------------------------------------------

    def add_root(self, pid: PartitionId, oid: ObjectId) -> None:
        """``oid`` (resident in ``pid``) joined the database root set."""
        roots = self._roots.get(pid)
        if roots is None:
            roots = self._roots[pid] = set()
        roots.add(oid)

    def pin(self, pid: PartitionId, oid: ObjectId) -> None:
        """``oid`` (resident in ``pid``) was created and is not yet linked."""
        pins = self._pins.get(pid)
        if pins is None:
            pins = self._pins[pid] = set()
        pins.add(oid)

    def unpin(self, pid: PartitionId, oid: ObjectId) -> None:
        """``oid`` became referenced (or a root); its allocation pin drops."""
        pins = self._pins.get(pid)
        if pins is not None:
            pins.discard(oid)

    def drop_object(self, pid: PartitionId, oid: ObjectId) -> None:
        """``oid`` left the store (reclaimed or expunged)."""
        roots = self._roots.get(pid)
        if roots is not None:
            roots.discard(oid)
        pins = self._pins.get(pid)
        if pins is not None:
            pins.discard(oid)

    # ------------------------------------------------------------------
    # Boundary sources
    # ------------------------------------------------------------------

    def remember_source(self, pid: PartitionId, src: ObjectId) -> None:
        """One more pointer slot of external ``src`` targets partition ``pid``."""
        sources = self._sources.get(pid)
        if sources is None:
            sources = self._sources[pid] = {}
        sources[src] = sources.get(src, 0) + 1
        self.edges += 1
        self.remembers_total += 1

    def forget_source(self, pid: PartitionId, src: ObjectId) -> None:
        """One remembered slot of ``src`` into ``pid`` was overwritten.

        Callers only invoke this for edges the partition's remembered set
        actually dropped (:meth:`~repro.storage.partition.Partition.forget`
        returns whether it did), so counts never go negative.
        """
        sources = self._sources.get(pid)
        if sources is None:
            return
        count = sources.get(src)
        if count is None:
            return
        if count <= 1:
            del sources[src]
        else:
            sources[src] = count - 1
        self.edges -= 1
        self.forgets_total += 1

    def forget_sources(self, pid: PartitionId, dropped: Mapping[ObjectId, int]) -> None:
        """Bulk removal: a resident of ``pid`` was reclaimed and its whole
        per-target source dict (``Partition.drop_incoming``) went with it."""
        sources = self._sources.get(pid)
        if sources is None:
            return
        for src, count in dropped.items():
            have = sources.get(src)
            if have is None:
                continue
            if have <= count:
                del sources[src]
            else:
                sources[src] = have - count
            self.edges -= count
            self.forgets_total += count

    # ------------------------------------------------------------------
    # Queries (the collector's frontier derivation)
    # ------------------------------------------------------------------

    def roots_in(self, pid: PartitionId) -> set[ObjectId]:
        """Database roots resident in ``pid``. Do not mutate."""
        return self._roots.get(pid, _EMPTY_SET)  # type: ignore[return-value]

    def pins_in(self, pid: PartitionId) -> set[ObjectId]:
        """Allocation-pinned residents of ``pid``. Do not mutate."""
        return self._pins.get(pid, _EMPTY_SET)  # type: ignore[return-value]

    def sources_in(self, pid: PartitionId) -> Mapping[ObjectId, int]:
        """Distinct external sources into ``pid`` → remembered slot count."""
        return self._sources.get(pid, _EMPTY_DICT)

    def stats(self) -> dict[str, int]:
        """Current set sizes and lifetime churn (``gc.remembered.*``)."""
        return {
            "edges": self.edges,
            "sources": sum(len(s) for s in self._sources.values()),
            "roots": sum(len(r) for r in self._roots.values()),
            "pins": sum(len(p) for p in self._pins.values()),
            "remembers_total": self.remembers_total,
            "forgets_total": self.forgets_total,
        }


def full_scan_frontier(
    store: "ObjectStore", pid: PartitionId
) -> tuple[set[ObjectId], set["PageId"]]:
    """From-scratch recomputation of partition ``pid``'s collection frontier.

    Scans the *entire heap* to derive exactly what the incremental path
    reads out of the remembered-set state in O(partition + boundary):

    * the conservative root set — database roots and allocation pins
      resident in ``pid``, plus every resident targeted by a pointer held
      outside the partition;
    * the external fix-up pages — pages of every external object holding at
      least one pointer into ``pid`` (compaction relocates their referents,
      so each needs a read-modify-write).

    O(heap) per call — the test oracle for the incremental frontier, never
    on a production path.
    """
    partition = store.partitions[pid]
    residents = partition.residents
    roots = store.roots & residents
    roots |= store.unlinked & residents
    page_size = store.config.page_size
    # Int-only reads of the flat placement columns: this scan visits every
    # heap object, so a Placement snapshot per object would dominate it.
    locate = store.placements.locate
    pages: set["PageId"] = set()
    for src, obj in store.objects.items():
        loc = locate(src)
        if loc is None or loc[0] == pid:
            continue
        referenced = False
        for target in obj.targets():
            if target in residents:
                roots.add(target)
                referenced = True
        if referenced:
            src_pid, offset, size = loc
            first = offset // page_size
            last = (offset + size - 1) // page_size
            for index in range(first, last + 1):
                pages.add((src_pid, index))
    return roots, pages
