"""Shared pointer-graph traversal.

Both reachability paths of the collector — the partition-local Cheney trace
(:meth:`repro.gc.collector.CopyingCollector.prepare`, and the parallel
scheduler's pump) and the whole-heap marking pass
(:meth:`~repro.storage.heap.ObjectStore.reachable_from`, used by
``collect_global`` and the verification oracles) — are the same
breadth-first scan differing only in their traversal domain. This module
holds the single implementation, :func:`cheney_trace`. Its leftover work
set is the part of the domain the scan never reached: for a partition's
residents, exactly the objects a compaction reclaims, which is why the
collector hands it straight to
:meth:`~repro.storage.heap.ObjectStore.plan_compaction` instead of
deriving it again from the survivors.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.storage.object_model import ObjectId
from repro.storage.objtable import ObjectTable


def cheney_trace(
    table: ObjectTable,
    roots: Iterable[ObjectId],
    within: Optional[Iterable[ObjectId]] = None,
) -> tuple[list[ObjectId], set[ObjectId]]:
    """Deterministic breadth-first traversal of the heap's pointer graph.

    Cheney's scan with its own queue: the returned list is to-space, and
    the scan pointer walks it while reached objects are appended behind —
    there is no second container. The traversal domain is copied once into
    a private ``todo`` set from which every reached object is removed, so
    the per-edge test is a single probe ("in the domain and not reached
    yet"); a null slot (``None``) is simply never a member. Each scanned
    object costs one index into the table's pointer-dict column.

    Args:
        table: The store's object table.
        roots: Traversal starts here, in the given order — callers wanting
            deterministic copy order pass roots pre-sorted. Roots outside
            the domain, and repeated roots, are skipped (partitioned
            collection's conservative root sets can mention ids filtered
            by ``within``).
        within: Optional traversal domain — only members are visited (the
            collector passes a partition's residents, so pointers leaving
            the partition are not traversed, §3.1). ``None`` traverses the
            whole object table.

    Returns:
        ``(order, unreached)``: every reached object id in visit (Cheney
        copy) order, and the work set that is left — the domain members
        the scan never reached, in no particular order. The two partition
        the domain.
    """
    if within is None:
        parts = table.parts
        within = [oid for oid in range(len(parts)) if parts[oid] >= 0]
        within += table.overflow
    todo: set[ObjectId] = set(within)
    reached = todo.remove
    order: list[ObjectId] = []
    copy = order.append
    for oid in roots:
        if oid in todo:
            reached(oid)
            copy(oid)
    ptrs = table.ptrs
    if table.overflow:
        # Negative or sparse oids in the table: a negative index would read
        # the dense column from its end, so each scanned oid is classified.
        dense = len(ptrs)
        rows = table.overflow_rows
        for oid in order:
            pointers = ptrs[oid] if 0 <= oid < dense else rows[oid][0]
            for target in pointers.values():
                if target in todo:
                    reached(target)
                    copy(target)
        return order, todo
    # Hot loop — this scan is the larger half of a collection pause. The
    # list iterator re-reads the length at every step, so it is the scan
    # pointer chasing the allocation pointer ``copy`` advances.
    for oid in order:
        for target in ptrs[oid].values():
            if target in todo:
                reached(target)
                copy(target)
    return order, todo


def breadth_first_order(
    table: ObjectTable,
    roots: Iterable[ObjectId],
    within: Optional[Iterable[ObjectId]] = None,
) -> list[ObjectId]:
    """The copy order of :func:`cheney_trace` alone, for callers that have
    no use for the unreached set (whole-heap reachability)."""
    return cheney_trace(table, roots, within)[0]
