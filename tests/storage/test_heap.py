"""Unit tests for the object store (heap): the central substrate."""

import pytest

from repro.storage.heap import ObjectStore, StoreConfig, StoreError

#: Geometry used throughout: 4 pages × 256 bytes = 1 KB partitions.
CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)


@pytest.fixture
def store() -> ObjectStore:
    return ObjectStore(CFG)


def test_store_config_validation():
    with pytest.raises(ValueError):
        StoreConfig(page_size=0)
    with pytest.raises(ValueError):
        StoreConfig(partition_pages=-1)


def test_create_assigns_sequential_oids(store):
    a = store.create(size=10)
    b = store.create(size=10)
    assert b == a + 1


def test_create_with_explicit_oid(store):
    oid = store.create(size=10, oid=42)
    assert oid == 42
    assert store.create(size=10) == 43


def test_double_create_rejected(store):
    store.create(size=10, oid=7)
    with pytest.raises(StoreError):
        store.create(size=10, oid=7)


def test_create_places_objects_contiguously(store):
    a = store.create(size=100)
    b = store.create(size=100)
    pa, offset_a, _ = store.placements.locate(a)
    pb, offset_b, _ = store.placements.locate(b)
    assert pa == pb == 0
    assert offset_b == offset_a + 100


def test_database_grows_when_partition_full(store):
    # 1 KB partitions: 3 objects of 400 bytes need 2 partitions.
    for _ in range(3):
        store.create(size=400)
    assert store.partition_count == 2


def test_first_fit_reuses_earlier_free_space(store):
    store.create(size=900)
    store.create(size=900)  # forces partition 1
    assert store.partition_count == 2
    # Partition 0 still has 124 bytes free → small object goes there.
    c = store.create(size=100)
    assert store.partition_of(c) == 0


def test_oversized_object_gets_dedicated_partition(store):
    big = store.create(size=5000)  # larger than the 1 KB partition size
    assert store.partitions[store.partition_of(big)].capacity == 5000


def test_create_with_unknown_pointer_target_rejected(store):
    with pytest.raises(StoreError):
        store.create(size=10, pointers={"x": 999})


def test_access_unknown_object_rejected(store):
    with pytest.raises(StoreError):
        store.access(12345)


def test_write_pointer_to_unknown_target_rejected(store):
    a = store.create(size=10)
    with pytest.raises(StoreError):
        store.write_pointer(a, "x", 999)


# ----------------------------------------------------------------------
# Overwrite vs store semantics (the policies' overwrite clock)
# ----------------------------------------------------------------------


def test_initial_pointer_values_are_not_overwrites(store):
    a = store.create(size=10)
    store.create(size=10, pointers={"x": a})
    assert store.pointer_overwrites == 0


def test_first_slot_write_is_a_store_not_overwrite(store):
    a = store.create(size=10)
    b = store.create(size=10)
    store.write_pointer(a, "x", b)
    assert store.pointer_overwrites == 0
    assert store.pointer_stores == 1


def test_null_to_value_write_is_a_store(store):
    a = store.create(size=10)
    b = store.create(size=10)
    store.write_pointer(a, "x", None)
    store.write_pointer(a, "x", b)
    assert store.pointer_overwrites == 0
    assert store.pointer_stores == 2


def test_replacing_non_null_pointer_is_an_overwrite(store):
    a = store.create(size=10)
    b = store.create(size=10)
    c = store.create(size=10)
    store.write_pointer(a, "x", b)
    store.write_pointer(a, "x", c)
    assert store.pointer_overwrites == 1
    store.write_pointer(a, "x", None)
    assert store.pointer_overwrites == 2


def test_overwrite_increments_old_targets_partition_fgs(store):
    a = store.create(size=10)
    b = store.create(size=900)
    c = store.create(size=900)  # pushed to partition 1
    assert store.partition_of(b) == 0
    assert store.partition_of(c) == 1
    store.write_pointer(a, "x", c)
    store.write_pointer(a, "x", b)  # overwrites a pointer INTO partition 1
    assert store.partitions[1].pointer_overwrites == 1
    assert store.partitions[0].pointer_overwrites == 0


# ----------------------------------------------------------------------
# Remembered sets
# ----------------------------------------------------------------------


def test_cross_partition_reference_is_remembered(store):
    a = store.create(size=900)  # partition 0
    b = store.create(size=900)  # partition 1
    store.write_pointer(a, "x", b)
    assert b in store.partitions[1].externally_referenced()


def test_intra_partition_reference_is_not_remembered(store):
    a = store.create(size=100)
    b = store.create(size=100)
    store.write_pointer(a, "x", b)
    assert store.partitions[0].externally_referenced() == set()


def test_overwrite_removes_old_remembered_reference(store):
    a = store.create(size=900)
    b = store.create(size=900)
    store.write_pointer(a, "x", b)
    store.write_pointer(a, "x", None)
    assert store.partitions[1].externally_referenced() == set()


def test_create_pointers_populate_remembered_sets(store):
    b = store.create(size=900)  # partition 0
    store.create(size=900, pointers={"x": b})  # partition 1
    assert b in store.partitions[0].externally_referenced()


# ----------------------------------------------------------------------
# Garbage accounting (oracle)
# ----------------------------------------------------------------------


def test_dies_annotation_marks_objects_dead(store):
    root = store.create(size=10)
    store.register_root(root)
    victim = store.create(size=100)
    store.write_pointer(root, "x", victim)
    store.write_pointer(root, "x", None, dies=[victim])
    assert store.placements.row(victim).dead
    assert store.garbage.total_generated == 100
    assert store.actual_garbage_bytes == 100
    assert store.partition_garbage_bytes(store.partition_of(victim)) == 100


def test_double_death_is_idempotent(store):
    root = store.create(size=10)
    store.register_root(root)
    victim = store.create(size=100)
    store.write_pointer(root, "x", victim)
    store.write_pointer(root, "y", victim)
    store.write_pointer(root, "x", None, dies=[victim])
    store.write_pointer(root, "y", None, dies=[victim])
    assert store.garbage.total_generated == 100


def test_garbage_fraction(store):
    root = store.create(size=10)
    store.register_root(root)
    victim = store.create(size=90)
    store.write_pointer(root, "x", victim)
    store.write_pointer(root, "x", None, dies=[victim])
    assert store.garbage_fraction == pytest.approx(90 / 100)


def test_garbage_fraction_empty_db_is_zero():
    assert ObjectStore(CFG).garbage_fraction == 0.0


def test_live_bytes_excludes_dead(store):
    root = store.create(size=10)
    store.register_root(root)
    victim = store.create(size=90)
    store.write_pointer(root, "x", victim)
    store.write_pointer(root, "x", None, dies=[victim])
    assert store.live_bytes == 10


# ----------------------------------------------------------------------
# db_size modes
# ----------------------------------------------------------------------


def test_db_size_allocated_counts_fill(store):
    store.create(size=100)
    store.create(size=200)
    assert store.db_size == 300


# ----------------------------------------------------------------------
# Collector support API
# ----------------------------------------------------------------------


def test_partition_roots_include_database_roots(store):
    a = store.create(size=10)
    store.register_root(a)
    assert a in store.partition_roots(0)


def test_partition_roots_include_external_references(store):
    a = store.create(size=900)  # partition 0
    b = store.create(size=900)  # partition 1
    store.write_pointer(a, "x", b)
    assert b in store.partition_roots(1)


def test_partition_roots_include_unlinked_pins(store):
    a = store.create(size=10)  # never referenced, never rooted
    assert a in store.partition_roots(0)


def test_linking_removes_unlinked_pin(store):
    a = store.create(size=10)
    b = store.create(size=10)
    store.write_pointer(b, "x", a)
    assert a not in store.unlinked
    assert b in store.unlinked  # b itself is still unreferenced


def test_rooting_removes_unlinked_pin(store):
    a = store.create(size=10)
    store.register_root(a)
    assert a not in store.unlinked


def test_intra_partition_targets_excludes_external(store):
    a = store.create(size=100)
    b = store.create(size=100)
    c = store.create(size=900)  # partition 1
    store.write_pointer(a, "near", b)
    store.write_pointer(a, "far", c)
    assert list(store.intra_partition_targets(a, 0)) == [b]


def test_compact_partition_reclaims_non_survivors(store):
    root = store.create(size=10)
    store.register_root(root)
    keep = store.create(size=100)
    drop = store.create(size=200)
    store.write_pointer(root, "x", keep)
    store.write_pointer(root, "y", drop)
    store.write_pointer(root, "y", None, dies=[drop])

    reclaimed = store.compact_partition(0, [root, keep])
    assert reclaimed == 200
    assert drop not in store.placements
    assert store.garbage.total_collected == 200
    assert store.actual_garbage_bytes == 0
    assert store.partitions[0].fill == 110
    assert store.placements.locate(root) == (0, 0, 10)
    assert store.placements.locate(keep) == (0, 10, 100)


def test_compact_partition_rejects_foreign_survivors(store):
    store.create(size=500)
    far = store.create(size=900)  # does not fit partition 0 → partition 1
    assert store.partition_of(far) == 1
    with pytest.raises(StoreError):
        store.compact_partition(0, [far])


def test_reclaiming_undeclared_object_is_counted(store):
    root = store.create(size=10)
    store.register_root(root)
    orphan = store.create(size=50)
    store.write_pointer(root, "x", orphan)
    store.write_pointer(root, "x", None)  # no dies annotation!
    store.compact_partition(0, [root])
    assert store.garbage.undeclared == 50
    assert store.garbage.total_collected == 50
    assert store.garbage.total_generated == 50  # folded in for consistency
    assert store.actual_garbage_bytes == 0


def test_reclaim_drops_remembered_references_both_directions(store):
    a = store.create(size=900)  # partition 0
    b = store.create(size=900)  # partition 1
    root = store.create(size=10)  # partition 0 (fits in free tail? no → check)
    store.register_root(root)
    store.write_pointer(a, "x", b)  # a→b remembered in partition 1
    store.write_pointer(root, "a", a)

    # Kill a, then collect its partition: the floating a→b reference must go.
    store.write_pointer(root, "a", None, dies=[a])
    pid_a = store.partition_of(a)
    survivors = [oid for oid in store.partitions[pid_a].residents if oid != a]
    store.compact_partition(pid_a, survivors)
    assert b not in store.partitions[store.partition_of(b)].externally_referenced()


def test_external_source_pages_identifies_referrer_pages(store):
    a = store.create(size=900)  # partition 0
    b = store.create(size=900)  # partition 1
    store.write_pointer(a, "x", b)
    pages = store.external_source_pages(store.partition_of(b))
    a_pages = set(store.pages_of(a))
    assert pages == a_pages


def test_db_size_restored_after_compaction(store):
    root = store.create(size=10)
    store.register_root(root)
    victim = store.create(size=500)
    store.write_pointer(root, "x", victim)
    store.write_pointer(root, "x", None, dies=[victim])
    before = store.db_size
    store.compact_partition(0, [root])
    assert store.db_size == before - 500


# ----------------------------------------------------------------------
# Reachability helpers
# ----------------------------------------------------------------------


def test_reachable_from_roots_follows_pointers(store):
    a = store.create(size=10)
    b = store.create(size=10)
    c = store.create(size=10)
    orphan = store.create(size=10)
    store.register_root(a)
    store.write_pointer(a, "x", b)
    store.write_pointer(b, "x", c)
    assert store.reachable_from_roots() == {a, b, c}
    assert orphan not in store.reachable_from_roots()


def test_reachability_handles_cycles(store):
    a = store.create(size=10)
    b = store.create(size=10)
    store.register_root(a)
    store.write_pointer(a, "x", b)
    store.write_pointer(b, "x", a)
    assert store.reachable_from_roots() == {a, b}


def test_check_death_annotations_flags_mismatches(store):
    root = store.create(size=10)
    store.register_root(root)
    victim = store.create(size=10)
    store.write_pointer(root, "x", victim)
    # Disconnect WITHOUT declaring death → mismatch (alive but unreachable).
    store.write_pointer(root, "x", None)
    assert victim in store.check_death_annotations()


def test_check_death_annotations_clean_when_consistent(store):
    root = store.create(size=10)
    store.register_root(root)
    victim = store.create(size=10)
    store.write_pointer(root, "x", victim)
    store.write_pointer(root, "x", None, dies=[victim])
    assert store.check_death_annotations() == set()


# ----------------------------------------------------------------------
# I/O behaviour of application operations
# ----------------------------------------------------------------------


def test_create_touches_pages_dirty(store):
    store.create(size=100)
    assert store.iostats.application.reads == 1  # page faulted in
    assert store.buffer.is_dirty((0, 0))


def test_access_is_clean_touch(store):
    from repro.storage.iostats import IOCategory

    a = store.create(size=100)
    store.buffer.flush(IOCategory.APPLICATION)
    store.access(a)
    assert not store.buffer.is_dirty((0, 0))


def test_update_dirties_page(store):
    a = store.create(size=100)
    store.update(a)
    assert store.buffer.is_dirty((0, 0))


def test_multi_page_object_touches_all_pages(store):
    store.create(size=600)  # spans 3 pages of 256 bytes
    assert store.iostats.application.reads == 3
