"""Shared pointer-graph traversal.

Both reachability paths of the collector — the partition-local Cheney trace
(:meth:`repro.gc.collector.CopyingCollector.collect`) and the whole-heap
marking pass (:meth:`~repro.storage.heap.ObjectStore.reachable_from`, used
by ``collect_global`` and the verification oracles) — are the same
breadth-first scan differing only in their traversal domain. This module
holds the single implementation; before it existed the two copies in
``collector.py`` and ``heap.py`` had to be kept in lockstep by hand.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.storage.object_model import ObjectId, StoredObject


def breadth_first_order(
    objects: Mapping[ObjectId, StoredObject],
    roots: Iterable[ObjectId],
    within: Optional[Iterable[ObjectId]] = None,
) -> list[ObjectId]:
    """Deterministic breadth-first traversal of the heap's pointer graph.

    Cheney's scan with its own queue: the returned list is to-space, and
    the scan pointer walks it while reached objects are appended behind —
    there is no second container. The traversal domain is copied once into
    a private ``todo`` set from which every reached object is removed, so
    the per-edge test is a single probe ("in the domain and not reached
    yet"); a null slot (``None``) is simply never a member.

    Args:
        objects: The store's object table (oid → object).
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
        Every reached object id, in visit (Cheney copy) order.
    """
    todo: set[ObjectId] = set(objects if within is None else within)
    reached = todo.remove
    order: list[ObjectId] = []
    copy = order.append
    for oid in roots:
        if oid in todo:
            reached(oid)
            copy(oid)
    # Hot loop — this scan is the larger half of a collection pause. The
    # list iterator re-reads the length at every step, so it is the scan
    # pointer chasing the allocation pointer ``copy`` advances.
    for oid in order:
        for target in objects[oid].pointers.values():
            if target in todo:
                reached(target)
                copy(target)
    return order
