"""Analytical model of per-collection I/O cost.

SAIO's central assumption (§2.2) is that successive collections cost about
the same number of I/O operations. This model makes the cost structure
explicit — and the tests validate it *exactly* against the collector's
accounting, which is what justifies the assumption on our substrate:

    GC reads  = pages(victim's used extent) + |external referrer pages|
    GC writes = dirty buffered victim pages                (stale-image flush)
              + ceil(live bytes / page size)               (compacted survivors)
              + |external referrer pages|                  (pointer fix-ups)

Only the fix-up and survivor terms vary much between collections on the
OO7 workload, which is why SAIO's constant-cost assumption holds well
there (Figure 4's accuracy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.storage.heap import ObjectStore
from repro.storage.partition import PartitionId


@dataclass(frozen=True)
class CollectionCostBreakdown:
    """Predicted I/O components of collecting one partition."""

    partition_read_pages: int
    survivor_write_pages: int
    fixup_pages: int
    dirty_writeback_pages: int

    @property
    def reads(self) -> int:
        return self.partition_read_pages + self.fixup_pages

    @property
    def writes(self) -> int:
        return (
            self.dirty_writeback_pages
            + self.survivor_write_pages
            + self.fixup_pages
        )

    @property
    def total(self) -> int:
        return self.reads + self.writes


def predict_collection_cost(
    store: ObjectStore, pid: PartitionId
) -> CollectionCostBreakdown:
    """Predict the exact I/O cost of collecting partition ``pid`` right now.

    Uses the partition's used extent, its *partition-reachable* byte total
    (the same conservative liveness the collector computes — survivors
    include floating garbage pinned by external references), its remembered
    set's referrer pages, and the buffer pool's dirty pages for the
    partition.
    """
    partition = store.partitions[pid]
    page_size = store.config.page_size

    # Survivors: intra-partition closure from the conservative roots —
    # exactly the collector's Cheney trace, without moving anything.
    reached: set = set(store.partition_roots(pid))
    stack = list(reached)
    while stack:
        oid = stack.pop()
        for target in store.intra_partition_targets(oid, pid):
            if target not in reached:
                reached.add(target)
                stack.append(target)
    live_bytes = sum(store.placements.locate(oid)[2] for oid in reached)
    dirty = sum(
        1
        for page in store.buffer.resident_pages()
        if page[0] == pid and store.buffer.is_dirty(page)
    )
    return CollectionCostBreakdown(
        partition_read_pages=partition.used_pages(page_size),
        survivor_write_pages=math.ceil(live_bytes / page_size) if live_bytes else 0,
        fixup_pages=len(store.external_source_pages(pid)),
        dirty_writeback_pages=dirty,
    )
