"""The per-object collector: the slow-and-obvious collection oracle.

Production runs a collection pause as three bulk kernels —
``repro.storage.traversal.breadth_first_order`` (a Cheney scan over its own
to-space list with a single-probe work set), ``ObjectStore.plan_compaction``
(a prefix-sum layout) and ``ObjectStore.compact_partition`` (one bulk
reclaim, one offset scatter). This module is what they replaced, written
one object at a time: a ``deque`` breadth-first search with a ``seen`` set,
a per-object reclaim through the placement table's and the partitions'
public methods, and a compaction that bump-allocates every
survivor. Tests require the two to leave the store in the same state under
:func:`ordered_fields` — a rendering that keeps every dict's and set's
*iteration order*, because the residents order of one collection is the
reclaim order of the next.

Like ``event_oracle`` it drives the production store underneath
(``Partition.bump`` / ``forget``, ``ObjectTable.discard`` and its offset
column): what
is independent here is the order and granularity of the collector's own
steps, not the data structures.
"""

from collections import deque
from contextlib import contextmanager
from functools import partial

from event_oracle import store_fields
from stored import objects

from repro.storage.heap import StoreError
from repro.storage.objtable import DENSE_CEILING


def breadth_first_order(objects, roots, within=None):
    """Breadth-first order from ``roots`` inside ``within`` (``None``: the
    whole table): a queue, a ``seen`` set, and two probes per edge."""
    domain = objects if within is None else within
    seen = set()
    queue = deque()
    for oid in roots:
        if oid in domain and oid not in seen:
            seen.add(oid)
            queue.append(oid)
    order = []
    while queue:
        oid = queue.popleft()
        order.append(oid)
        for target in objects[oid].pointers.values():
            if target is not None and target not in seen and target in domain:
                seen.add(target)
                queue.append(target)
    return order


def reclaim(store, oid, pid):
    """Remove one object the collector found unreachable; returns its size."""
    if store.placements.part_of(oid) != pid:
        raise StoreError(f"object {oid} reclaimed from wrong partition")
    obj = store.placements.row(oid)
    store.placements.discard(oid)
    if obj.dead:
        store.dead_bytes[pid] = store.dead_bytes.get(pid, 0) - obj.size
    else:
        store.garbage.total_generated += obj.size
        store.garbage.undeclared += obj.size
    store.garbage.total_collected += obj.size
    store.slot_count -= len(obj.pointers)
    for target in obj.pointers.values():
        tgt_pid = -1 if target is None else store.placements.part_of(target)
        if tgt_pid < 0 or tgt_pid == pid:
            continue
        if store.partitions[tgt_pid].forget(oid, target):
            store.forgets_total += 1
    dropped = store.partitions[pid].drop_incoming(oid)
    if dropped:
        store.forgets_total += sum(dropped.values())
    store.roots.discard(oid)
    store.unlinked.discard(oid)
    return obj.size


def compact_partition(store, pid, survivors, plan=None):
    """``ObjectStore.compact_partition`` one object at a time. ``plan`` is
    accepted and ignored: everything is derived here, inside the call."""
    partition = store.partitions[pid]
    store.compaction_epoch += 1
    store.trace_epochs[pid] += 1
    survivor_set = set(survivors)
    unknown = survivor_set - partition.residents
    if unknown:
        raise StoreError(
            f"survivors {sorted(unknown)} are not residents of partition {pid}"
        )
    reclaimed_bytes = 0
    for oid in [oid for oid in partition.residents if oid not in survivor_set]:
        reclaimed_bytes += reclaim(store, oid, pid)
    fill_before = partition.fill
    store.pending_overwrites -= partition.pointer_overwrites
    partition.reset_for_compaction()
    table = store.placements
    for oid in survivors:
        _, _, size = table.locate(oid)
        offset = partition.bump(oid, size)
        if 0 <= oid < DENSE_CEILING:
            table.offs[oid] = offset
        else:
            table.overflow[oid] = (pid, offset, size)
    store._allocated_bytes -= fill_before - partition.fill
    store._partition_free[pid] = partition.capacity - partition.fill
    store._fit_cursor.clear()  # free bytes grew: a cursor may skip them
    if partition.fill < partition.capacity:
        store._reopen_partition(pid)
    return reclaimed_bytes


@contextmanager
def per_object_compaction(store):
    """Inside the block ``store.compact_partition`` is the oracle's."""
    store.compact_partition = partial(compact_partition, store)
    try:
        yield
    finally:
        del store.compact_partition


def collect(collector, pid):
    """``collector.collect(pid)`` with the oracle's trace and compaction;
    the I/O charges and the result record stay ``CopyingCollector.apply``'s."""
    store = collector._store
    survivors = breadth_first_order(
        objects(store),
        sorted(store.partition_roots(pid)),
        within=store.partitions[pid].residents,
    )
    with per_object_compaction(store):
        return collector.apply(pid, survivors, store.external_source_pages(pid))


def ordered_fields(store) -> dict:
    """``store_fields`` plus the iteration order of every dict and set a
    collection writes (``list(part.residents)`` is already in there)."""
    return {
        **store_fields(store),
        "objects_order": list(objects(store)),
        "overflow_order": list(store.placements.overflow.items()),
        "incoming_order": [
            [(target, list(sources.items())) for target, sources in part.incoming.items()]
            for part in store.partitions
        ],
        "roots_order": list(store.roots),
        "unlinked_order": list(store.unlinked),
        "dead_bytes_order": list(store.dead_bytes.items()),
        "allocated_bytes": store._allocated_bytes,
    }
