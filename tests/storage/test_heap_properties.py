"""Property-based tests (hypothesis) for heap invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from stored import objects

from repro.storage.buffer import BufferPool
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.iostats import IOCategory, IOStats

CFG = StoreConfig(page_size=128, partition_pages=4, buffer_pages=3)


@st.composite
def allocation_sequences(draw):
    """Random sequences of object sizes (possibly oversized)."""
    return draw(
        st.lists(st.integers(min_value=1, max_value=700), min_size=1, max_size=60)
    )


@given(allocation_sequences())
def test_allocations_never_overlap_within_a_partition(sizes):
    store = ObjectStore(CFG)
    for size in sizes:
        store.create(size=size)
    for partition in store.partitions:
        spans = sorted(store.placements.locate(oid)[1:] for oid in partition.residents)
        cursor = 0
        for offset, size in spans:
            assert offset >= cursor
            cursor = offset + size
        assert cursor <= partition.capacity
        assert cursor == partition.fill


@given(allocation_sequences())
def test_db_size_equals_sum_of_object_sizes(sizes):
    store = ObjectStore(CFG)
    for size in sizes:
        store.create(size=size)
    assert store.db_size == sum(sizes)


@given(allocation_sequences())
def test_every_object_has_exactly_one_placement(sizes):
    store = ObjectStore(CFG)
    oids = [store.create(size=size) for size in sizes]
    assert set(objects(store)) == set(oids)
    resident_total = [oid for p in store.partitions for oid in p.residents]
    assert sorted(resident_total) == sorted(oids)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=15), st.booleans()),
        min_size=1,
        max_size=200,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_buffer_pool_never_exceeds_capacity_and_counts_add_up(touches, capacity):
    iostats = IOStats()
    pool = BufferPool(capacity=capacity, iostats=iostats)
    for page_index, dirty in touches:
        pool.touch((0, page_index), IOCategory.APPLICATION, dirty=dirty)
        assert len(pool) <= capacity
    assert pool.stats.accesses == len(touches)
    # Every miss is exactly one read I/O.
    assert iostats.application.reads == pool.stats.misses


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.booleans()),
        min_size=1,
        max_size=100,
    )
)
def test_buffer_recency_reflects_touch_order(touches):
    """The MRU page is always the last page touched."""
    iostats = IOStats()
    pool = BufferPool(capacity=4, iostats=iostats)
    for page_index, dirty in touches:
        pool.touch((0, page_index), IOCategory.APPLICATION, dirty=dirty)
        assert list(pool.resident_pages())[-1] == (0, page_index)


@settings(max_examples=30)
@given(
    st.lists(st.integers(min_value=20, max_value=200), min_size=2, max_size=30),
    st.data(),
)
def test_remembered_set_invariant_under_random_pointer_writes(sizes, data):
    """For every cross-partition pointer src→tgt, tgt's partition remembers src.

    And no remembered entry exists without a matching live pointer.
    """
    store = ObjectStore(CFG)
    oids = [store.create(size=size) for size in sizes]
    writes = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(oids),
                st.sampled_from(["a", "b"]),
                st.one_of(st.none(), st.sampled_from(oids)),
            ),
            max_size=60,
        )
    )
    for src, slot, target in writes:
        store.write_pointer(src, slot, target)

    expected: dict[int, set[tuple[int, int]]] = {}
    for oid, obj in objects(store).items():
        src_pid = store.partition_of(oid)
        for target in obj.pointers.values():
            if target is None:
                continue
            tgt_pid = store.partition_of(target)
            if tgt_pid != src_pid:
                expected.setdefault(tgt_pid, set()).add((oid, target))

    for partition in store.partitions:
        actual = {
            (src, tgt)
            for tgt, sources in partition.incoming.items()
            for src in sources
        }
        assert actual == expected.get(partition.pid, set())
