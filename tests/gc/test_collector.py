"""Unit tests for the partitioned copying collector."""

import pytest

from stored import objects

from repro.gc.collector import CopyingCollector
from repro.storage.heap import ObjectStore, StoreConfig

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)


@pytest.fixture
def store() -> ObjectStore:
    return ObjectStore(CFG)


@pytest.fixture
def collector(store) -> CopyingCollector:
    return CopyingCollector(store)


def _build_simple_db(store):
    """root → a → b, plus garbage g (declared dead), all in partition 0."""
    root = store.create(size=50)
    store.register_root(root)
    a = store.create(size=60)
    b = store.create(size=70)
    g = store.create(size=80)
    store.write_pointer(root, "a", a)
    store.write_pointer(a, "b", b)
    store.write_pointer(root, "g", g)
    store.write_pointer(root, "g", None, dies=[g])
    return root, a, b, g


def test_collect_reclaims_unreachable_and_keeps_live(store, collector):
    root, a, b, g = _build_simple_db(store)
    result = collector.collect(0)
    assert result.reclaimed_bytes == 80
    assert result.reclaimed_objects == 1
    assert result.live_objects == 3
    assert g not in store.placements
    assert {root, a, b} <= set(objects(store))


def test_collect_compacts_survivors_contiguously(store, collector):
    root, a, b, _g = _build_simple_db(store)
    collector.collect(0)
    cursor = 0
    for _pid, offset, size in sorted(store.placements.locate(oid) for oid in (root, a, b)):
        assert offset == cursor
        cursor += size
    assert store.partitions[0].fill == 50 + 60 + 70


def test_collect_copies_in_breadth_first_order(store, collector):
    """Cheney order: roots first, then their targets level by level."""
    root = store.create(size=10)
    store.register_root(root)
    a = store.create(size=10)
    b = store.create(size=10)
    c = store.create(size=10)
    store.write_pointer(root, "x", a)
    store.write_pointer(root, "y", b)
    store.write_pointer(a, "z", c)
    collector.collect(0)
    offsets = {oid: store.placements.locate(oid)[1] for oid in (root, a, b, c)}
    assert offsets[root] < offsets[a] < offsets[b] < offsets[c]


def test_collect_resets_fgs_counter(store, collector):
    root, a, b, _g = _build_simple_db(store)
    other = store.create(size=900)  # partition 1
    store.write_pointer(a, "far", other)
    store.write_pointer(a, "far", None)  # overwrite into partition 1
    store.write_pointer(root, "a", a)  # overwrite into partition 0
    po_before = store.partitions[0].pointer_overwrites
    assert po_before >= 1
    result = collector.collect(0)
    assert result.pointer_overwrites_at_selection == po_before
    assert store.partitions[0].pointer_overwrites == 0
    assert store.partitions[1].pointer_overwrites == 1  # untouched


def test_collect_counts_gc_io(store, collector):
    _build_simple_db(store)
    result = collector.collect(0)
    # 1 used page read + 2 survivor pages written (50+60+70=180 bytes → 1 page)
    assert result.gc_reads >= 1
    assert result.gc_writes >= 1
    assert result.gc_io == result.gc_reads + result.gc_writes
    assert store.iostats.collector_total == result.gc_io
    # Application I/O must not be charged for collection work.
    app_before = store.iostats.application_total
    collector.collect(0)
    assert store.iostats.application_total == app_before


def test_external_reference_keeps_object_alive(store, collector):
    """A resident referenced only from another partition must survive."""
    a = store.create(size=900)  # partition 0
    b = store.create(size=900)  # partition 1
    store.register_root(a)
    store.write_pointer(a, "x", b)
    result = collector.collect(1)
    assert b in store.placements
    assert result.live_objects == 1


def test_floating_garbage_survives_until_referrer_reclaimed(store, collector):
    """Dead object referenced by a dead external object floats, then drains."""
    root = store.create(size=50)
    store.register_root(root)
    a = store.create(size=900)  # partition 0 (with root)
    b = store.create(size=900)  # partition 1
    store.write_pointer(root, "a", a)
    store.write_pointer(a, "b", b)
    # Kill the whole chain a→b with one overwrite.
    store.write_pointer(root, "a", None, dies=[a, b])

    # Collect b's partition first: b floats (dead a still references it).
    collector.collect(1)
    assert b in store.placements
    # Collect a's partition: a reclaimed, its reference to b dropped.
    collector.collect(0)
    assert a not in store.placements
    # Now b is collectable.
    collector.collect(1)
    assert b not in store.placements
    assert store.actual_garbage_bytes == 0


def test_pointers_leaving_partition_not_traversed(store, collector):
    """An out-pointer to another partition is not followed (and the target
    partition is untouched by this collection)."""
    a = store.create(size=900)  # partition 0
    b = store.create(size=900)  # partition 1
    store.register_root(a)
    store.write_pointer(a, "x", b)
    fill_before = store.partitions[1].fill
    collector.collect(0)
    assert store.partitions[1].fill == fill_before
    assert b in store.placements


def test_collect_invalidates_buffered_victim_pages(store, collector):
    root = store.create(size=50)
    store.register_root(root)
    assert any(page[0] == 0 for page in store.buffer.resident_pages())
    collector.collect(0)
    assert not any(page[0] == 0 for page in store.buffer.resident_pages())


def test_collection_numbers_increment(store, collector):
    store.register_root(store.create(size=10))
    first = collector.collect(0)
    second = collector.collect(0)
    assert first.collection_number == 0
    assert second.collection_number == 1
    assert collector.collections_performed == 2


def test_yield_per_overwrite(store, collector):
    root = store.create(size=50)
    store.register_root(root)
    g = store.create(size=100)
    store.write_pointer(root, "g", g)
    store.write_pointer(root, "g", None, dies=[g])
    result = collector.collect(0)
    assert result.pointer_overwrites_at_selection == 1
    assert result.yield_per_overwrite == pytest.approx(100.0)


def test_yield_per_overwrite_zero_without_overwrites(store, collector):
    store.register_root(store.create(size=10))
    result = collector.collect(0)
    assert result.yield_per_overwrite == 0.0


def test_empty_partition_collection_is_noop(store, collector):
    root = store.create(size=50)
    store.register_root(root)
    other = store.create(size=990)  # partition 1
    store.register_root(other)
    store.compact_partition(1, [other])
    # Manually empty partition 1 by reclaiming its resident.
    store.compact_partition(1, [])
    result = collector.collect(1)
    assert result.reclaimed_bytes == 0
    assert result.live_objects == 0


def test_total_reclaimed_accumulates(store, collector):
    _build_simple_db(store)
    collector.collect(0)
    assert collector.total_reclaimed_bytes == 80
