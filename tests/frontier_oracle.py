"""The from-scratch collection frontier: the remembered-set test oracle.

Partitioned collection (§3.1, [CWZ94]) is designed so one partition can be
collected *without* a global scan: the conservative root set of a partition
is (database roots ∩ residents) ∪ (allocation pins ∩ residents) ∪ (targets
of remembered inter-partition references). The store keeps one remembered
set, :attr:`~repro.storage.partition.Partition.incoming` — per resident,
the external sources pointing at it, with a slot count each — and derives
the frontier from it and its own root and pin sets at collection time
(:meth:`~repro.storage.heap.ObjectStore.partition_roots`,
:meth:`~repro.storage.heap.ObjectStore.external_source_pages`), in
O(partition + boundary).

**Conservatism caveat** (the paper's stated limitation): remembered-in
references are treated as roots even when the referencing object is itself
garbage in another partition, so *cross-partition garbage cycles* are never
reclaimed by partition collection and are only recovered by
:meth:`~repro.gc.collector.CopyingCollector.collect_global`'s
whole-database marking pass. The oracle garbage
accounting and the estimator/telemetry layers all report against this same
definition of reclaimable garbage.

:func:`full_scan_frontier` recomputes the identical frontier by scanning
the entire heap (O(heap)). The property tests compare the store's
derivation against it at every mutation and collection point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.storage.object_model import ObjectId
from repro.storage.partition import PartitionId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.storage.buffer import PageId
    from repro.storage.heap import ObjectStore


def full_scan_frontier(
    store: "ObjectStore", pid: PartitionId
) -> tuple[set[ObjectId], set["PageId"]]:
    """From-scratch recomputation of partition ``pid``'s collection frontier.

    Scans the *entire heap* to derive exactly what the store derives from
    ``Partition.incoming`` in O(partition + boundary):

    * the conservative root set — database roots and allocation pins
      resident in ``pid``, plus every resident targeted by a pointer held
      outside the partition;
    * the external fix-up pages — pages of every external object holding at
      least one pointer into ``pid`` (compaction relocates their referents,
      so each needs a read-modify-write).

    O(heap) per call — the test oracle for the store's frontier.
    """
    partition = store.partitions[pid]
    residents = partition.residents
    roots = store.roots & residents
    roots |= store.unlinked & residents
    page_size = store.config.page_size
    locate = store.placements.locate
    pages: set["PageId"] = set()
    for obj in store.placements.rows():
        src = obj.oid
        loc = locate(src)
        if loc[0] == pid:
            continue
        referenced = False
        for target in obj.pointers.values():
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
