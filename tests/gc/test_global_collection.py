"""Tests for global (whole-database) collection — the cyclic-garbage fallback."""


from stored import objects

from repro.gc.collector import CopyingCollector
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.validation import validate_store

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)


def _cross_partition_cycle(store):
    """Build a dead two-object cycle spanning two partitions."""
    root = store.create(size=10)
    store.register_root(root)
    a = store.create(size=1000)  # partition 1
    b = store.create(size=1000)  # partition 2
    assert store.partition_of(a) != store.partition_of(b)
    store.write_pointer(a, "b", b)
    store.write_pointer(b, "a", a)
    store.write_pointer(root, "a", a)
    store.write_pointer(root, "a", None, dies=[a, b])
    return root, a, b


def test_partitioned_collection_cannot_reclaim_cross_partition_cycle():
    store = ObjectStore(CFG)
    root, a, b = _cross_partition_cycle(store)
    collector = CopyingCollector(store)
    for _round in range(4):
        for pid in range(store.partition_count):
            collector.collect(pid)
    # The dead cycle floats forever under per-partition collection.
    assert a in store.placements
    assert b in store.placements
    assert store.actual_garbage_bytes == 2000


def test_global_collection_reclaims_the_cycle():
    store = ObjectStore(CFG)
    root, a, b = _cross_partition_cycle(store)
    collector = CopyingCollector(store)
    results = collector.collect_global()
    assert a not in store.placements
    assert b not in store.placements
    assert store.actual_garbage_bytes == 0
    assert root in store.placements
    assert sum(r.reclaimed_bytes for r in results) == 2000
    assert validate_store(store).ok


def test_global_collection_preserves_all_reachable():
    from repro.oo7.builder import build_database
    from repro.oo7.config import TINY

    db = build_database(TINY, store_config=StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4))
    store = db.store
    before = set(objects(store))
    collector = CopyingCollector(store)
    results = collector.collect_global()
    assert set(objects(store)) == before  # fresh DB: nothing to reclaim
    assert sum(r.reclaimed_bytes for r in results) == 0
    assert validate_store(store).ok


def test_global_collection_counts_io_and_collections():
    store = ObjectStore(CFG)
    _cross_partition_cycle(store)
    collector = CopyingCollector(store)
    results = collector.collect_global()
    assert collector.collections_performed == len(results) == store.partition_count
    assert store.iostats.collector_total > 0
    assert all(r.gc_io == r.gc_reads + r.gc_writes for r in results)


def test_global_collection_resets_fgs_counters():
    store = ObjectStore(CFG)
    _cross_partition_cycle(store)
    collector = CopyingCollector(store)
    assert any(p.pointer_overwrites for p in store.partitions)
    collector.collect_global()
    assert all(p.pointer_overwrites == 0 for p in store.partitions)


def test_global_then_partitioned_interoperate():
    store = ObjectStore(CFG)
    root, _a, _b = _cross_partition_cycle(store)
    collector = CopyingCollector(store)
    collector.collect_global()
    # New garbage after the global pass is handled by normal collection.
    victim = store.create(size=100)
    store.write_pointer(root, "v", victim)
    store.write_pointer(root, "v", None, dies=[victim])
    result = collector.collect(store.partition_of(victim))
    assert result.reclaimed_bytes == 100
    assert validate_store(store).ok
