"""Property-based tests: collector correctness on random object graphs.

The fundamental GC safety/liveness contract, checked against an independent
full-database reachability oracle:

* **safety** — no globally reachable object is ever reclaimed;
* **partitioned liveness** — after collecting every partition repeatedly
  until a fixed point, no unreachable object remains (floating garbage
  drains, because death cascades in our workloads are acyclic; random graphs
  here may contain cross-partition dead *cycles*, which partitioned
  collection legitimately cannot reclaim — the test accounts for them).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from stored import objects

from repro.gc.collector import CopyingCollector
from repro.storage.heap import ObjectStore, StoreConfig

CFG = StoreConfig(page_size=128, partition_pages=4, buffer_pages=3)


@st.composite
def object_graphs(draw):
    """A random store: objects, random pointers, random subset of roots."""
    count = draw(st.integers(min_value=1, max_value=40))
    sizes = draw(
        st.lists(
            st.integers(min_value=10, max_value=300),
            min_size=count,
            max_size=count,
        )
    )
    store = ObjectStore(CFG)
    oids = [store.create(size=size) for size in sizes]
    edge_count = draw(st.integers(min_value=0, max_value=3 * count))
    for index in range(edge_count):
        src = draw(st.sampled_from(oids))
        target = draw(st.sampled_from(oids))
        store.write_pointer(src, f"slot{index % 4}", target)
    root_count = draw(st.integers(min_value=0, max_value=max(1, count // 4)))
    for oid in draw(
        st.lists(st.sampled_from(oids), min_size=root_count, max_size=root_count)
    ):
        store.register_root(oid)
    return store


def _collect_to_fixpoint(store: ObjectStore, collector: CopyingCollector) -> None:
    """Collect every partition until no collection reclaims anything.

    Floating garbage drains one "layer" per round, so a chain of N objects
    needs at most N rounds; bound by the object count for safety.
    """
    for _round in range(len(store.placements) + 2):
        reclaimed = 0
        for pid in range(len(store.partitions)):
            reclaimed += collector.collect(pid).reclaimed_bytes
        if reclaimed == 0:
            return


def _live_oracle(store: ObjectStore) -> set[int]:
    """What must survive: transitively reachable from roots and unlinked pins."""
    return store.reachable_from(store.roots | store.unlinked)


def _expected_fixpoint_survivors(store: ObjectStore) -> set[int]:
    """Greatest fixed point of partitioned collection on the current graph.

    An object survives iff it is reachable *within its partition* from that
    partition's conservative roots: global roots, unlinked pins, and objects
    referenced from surviving objects in other partitions. Iterating from
    "everything survives" downward converges to exactly what repeated
    partition collections leave behind (objects never move between
    partitions and pointers are not mutated by collection)."""
    stored = objects(store)
    pointers = {
        oid: [t for t in obj.pointers.values() if t in store.placements]
        for oid, obj in stored.items()
    }
    partition_of = {oid: store.partition_of(oid) for oid in stored}
    pinned = (store.roots | store.unlinked) & set(stored)

    kept = set(stored)
    while True:
        new_kept: set[int] = set()
        for partition in store.partitions:
            residents = partition.residents & kept
            if not residents:
                continue
            roots = pinned & residents
            for src in kept:
                if partition_of[src] != partition.pid:
                    roots.update(
                        t for t in pointers[src] if partition_of[t] == partition.pid
                    )
            stack = [oid for oid in roots if oid in residents]
            seen = set(stack)
            while stack:
                oid = stack.pop()
                new_kept.add(oid)
                for target in pointers[oid]:
                    if (
                        target not in seen
                        and partition_of[target] == partition.pid
                        and target in residents
                    ):
                        seen.add(target)
                        stack.append(target)
        if new_kept == kept:
            return kept
        kept = new_kept


@settings(max_examples=40, deadline=None)
@given(object_graphs())
def test_collector_never_reclaims_reachable_objects(store):
    collector = CopyingCollector(store)
    reachable_before = _live_oracle(store)
    _collect_to_fixpoint(store, collector)
    assert reachable_before <= set(objects(store))


@settings(max_examples=40, deadline=None)
@given(object_graphs())
def test_collector_converges_to_exact_partitioned_fixpoint(store):
    """Repeated collection leaves exactly the greatest-fixpoint survivor set:
    all drainable garbage is reclaimed; cross-partition cyclic garbage (the
    documented limitation of partitioned collection) is all that remains."""
    collector = CopyingCollector(store)
    expected = _expected_fixpoint_survivors(store)
    _collect_to_fixpoint(store, collector)
    assert set(objects(store)) == expected
    # Sanity: everything globally reachable is part of the fixpoint.
    assert _live_oracle(store) <= expected


@settings(max_examples=40, deadline=None)
@given(object_graphs())
def test_pointers_remain_valid_after_collections(store):
    """After collection, every surviving pointer targets a surviving object
    placed inside its partition's allocated extent."""
    collector = CopyingCollector(store)
    _collect_to_fixpoint(store, collector)
    for oid, obj in objects(store).items():
        pid, offset, size = store.placements.locate(oid)
        partition = store.partitions[pid]
        assert oid in partition.residents
        assert offset + size <= partition.fill
        for target in obj.pointers.values():
            # Dangling pointers to reclaimed garbage are permitted only from
            # unreachable (dead) sources; live objects never dangle.
            if target is not None and target not in store.placements:
                assert oid not in _live_oracle(store)


@settings(max_examples=30, deadline=None)
@given(object_graphs())
def test_garbage_accounting_identity(store):
    """TotGarb - TotColl == ActGarb == sum of declared-dead resident bytes."""
    collector = CopyingCollector(store)
    _collect_to_fixpoint(store, collector)
    dead_bytes = sum(obj.size for obj in store.placements.rows() if obj.dead)
    assert store.actual_garbage_bytes == dead_bytes
    assert (
        store.garbage.total_generated - store.garbage.total_collected
        == store.actual_garbage_bytes
    )


@settings(max_examples=40, deadline=None)
@given(object_graphs())
def test_global_collection_leaves_exactly_the_reachable_set(store):
    """collect_global reclaims ALL garbage — including cross-partition
    cycles — leaving exactly the globally reachable objects."""
    collector = CopyingCollector(store)
    expected = _live_oracle(store)
    collector.collect_global()
    assert set(objects(store)) == expected
