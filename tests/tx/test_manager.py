"""Unit tests for the transaction manager: commit/abort/undo semantics."""

import pytest

from repro.gc.collector import CopyingCollector
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.validation import validate_store
from repro.tx.manager import TransactionError, TransactionManager, TransactionState

from frontier_oracle import full_scan_frontier

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)


@pytest.fixture
def store() -> ObjectStore:
    return ObjectStore(CFG)


@pytest.fixture
def manager(store) -> TransactionManager:
    return TransactionManager(store)


def _seed_root(store):
    root = store.create(size=10)
    store.register_root(root)
    return root


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


def test_begin_commit_lifecycle(manager):
    txn = manager.begin()
    assert manager.in_transaction
    assert txn.state is TransactionState.ACTIVE
    manager.commit()
    assert not manager.in_transaction
    assert txn.state is TransactionState.COMMITTED
    assert manager.committed == 1


def test_nested_transactions_rejected(manager):
    manager.begin()
    with pytest.raises(TransactionError, match="still active"):
        manager.begin()


def test_commit_without_transaction_rejected(manager):
    with pytest.raises(TransactionError, match="no active"):
        manager.commit()


def test_abort_without_transaction_rejected(manager):
    with pytest.raises(TransactionError, match="no active"):
        manager.abort()


def test_txid_mismatch_rejected(manager):
    manager.begin(txid=7)
    with pytest.raises(TransactionError, match="mismatch"):
        manager.commit(txid=8)


def test_explicit_txids_advance_counter(manager):
    manager.begin(txid=10)
    manager.commit()
    txn = manager.begin()
    assert txn.txid == 11


def test_operations_require_transaction(manager, store):
    root = _seed_root(store)
    with pytest.raises(TransactionError):
        manager.create(size=10)
    with pytest.raises(TransactionError):
        manager.write_pointer(root, "x", None)


# ----------------------------------------------------------------------
# Commit semantics
# ----------------------------------------------------------------------


def test_committed_effects_persist(manager, store):
    root = _seed_root(store)
    manager.begin()
    child = manager.create(size=50)
    manager.write_pointer(root, "child", child)
    manager.commit()
    assert child in store.placements
    assert store.placements.row(root).pointers["child"] == child
    assert validate_store(store).ok


# ----------------------------------------------------------------------
# Abort semantics: creations
# ----------------------------------------------------------------------


def test_abort_expunges_created_objects(manager, store):
    _seed_root(store)
    size_before = store.db_size
    manager.begin()
    created = manager.create(size=50)
    manager.abort()
    assert created not in store.placements
    assert store.db_size == size_before
    assert validate_store(store).ok


def test_abort_reverts_pointer_writes(manager, store):
    root = _seed_root(store)
    a = store.create(size=20)
    b = store.create(size=20)
    store.write_pointer(root, "x", a)
    manager.begin()
    manager.write_pointer(root, "x", b)
    manager.write_pointer(root, "y", b)  # brand-new slot
    manager.abort()
    assert store.placements.row(root).pointers["x"] == a
    assert "y" not in store.placements.row(root).pointers
    assert validate_store(store).ok


def test_abort_resurrects_dead_objects(manager, store):
    root = _seed_root(store)
    victim = store.create(size=100)
    store.write_pointer(root, "v", victim)
    manager.begin()
    manager.write_pointer(root, "v", None, dies=[victim])
    assert store.actual_garbage_bytes == 100
    manager.abort()
    assert not store.placements.row(victim).dead
    assert store.actual_garbage_bytes == 0
    assert store.garbage.total_generated == 0
    assert store.check_death_annotations() == set()
    assert validate_store(store).ok


def test_abort_restores_overwrite_clock_and_fgs(manager, store):
    root = _seed_root(store)
    a = store.create(size=20)
    store.write_pointer(root, "x", a)
    clock_before = store.pointer_overwrites
    fgs_before = store.partitions[store.partition_of(a)].pointer_overwrites
    manager.begin()
    manager.write_pointer(root, "x", None, dies=[a])
    manager.abort()
    assert store.pointer_overwrites == clock_before
    assert store.partitions[store.partition_of(a)].pointer_overwrites == fgs_before


def test_abort_restores_root_registration(manager, store):
    _seed_root(store)
    extra = store.create(size=10)
    manager.begin()
    manager.register_root(extra)
    manager.abort()
    assert extra not in store.roots
    # The collection frontier loses the root with it: no second copy of the
    # root set keeps the aborted registration alive.
    pid = store.partition_of(extra)
    assert store.partition_roots(pid) == full_scan_frontier(store, pid)[0]
    assert validate_store(store).ok


def _survives_a_collection_of_its_partition(store, oid):
    pid = store.partition_of(oid)
    assert oid in store.partition_roots(pid)
    CopyingCollector(store).collect(pid)
    assert oid in store.placements
    assert validate_store(store).ok


def test_abort_restores_the_pin_a_root_registration_took(manager, store):
    _seed_root(store)
    x = store.create(size=10)
    manager.begin()
    manager.register_root(x)
    assert x not in store.unlinked
    epoch = store.trace_epochs[store.partition_of(x)]
    manager.abort()
    assert x not in store.roots
    assert x in store.unlinked
    # The frontier changed, so a speculative trace of the partition is stale.
    assert store.trace_epochs[store.partition_of(x)] > epoch
    _survives_a_collection_of_its_partition(store, x)


def test_abort_restores_the_pin_a_pointer_write_took(manager, store):
    root = _seed_root(store)
    x = store.create(size=10)
    manager.begin()
    manager.write_pointer(root, "x", x)
    assert x not in store.unlinked
    epoch = store.trace_epochs[store.partition_of(x)]
    manager.abort()
    assert "x" not in store.placements.row(root).pointers
    assert x in store.unlinked
    assert store.trace_epochs[store.partition_of(x)] > epoch
    _survives_a_collection_of_its_partition(store, x)


def test_abort_keeps_preexisting_root(manager, store):
    root = _seed_root(store)
    manager.begin()
    manager.register_root(root)  # already a root — undo must not remove it
    manager.abort()
    assert root in store.roots


def test_create_then_delete_then_abort(manager, store):
    """An object created and killed in the same transaction vanishes
    cleanly on abort (resurrect before expunge)."""
    root = _seed_root(store)
    manager.begin()
    child = manager.create(size=40)
    manager.write_pointer(root, "c", child)
    manager.write_pointer(root, "c", None, dies=[child])
    manager.abort()
    assert child not in store.placements
    assert "c" not in store.placements.row(root).pointers
    assert store.garbage.total_generated == 0
    assert validate_store(store).ok


def test_abort_restores_remembered_sets(manager, store):
    root = _seed_root(store)
    far = store.create(size=1020)  # own partition
    far_pid = store.partition_of(far)
    assert far_pid != store.partition_of(root)
    store.write_pointer(root, "far", far)
    manager.begin()
    manager.write_pointer(root, "far", None, dies=[far])
    manager.abort()
    assert far in store.partitions[far_pid].externally_referenced()
    assert validate_store(store).ok


def test_tail_expunge_reclaims_bump_space(manager, store):
    _seed_root(store)
    fill_before = store.partitions[0].fill
    manager.begin()
    manager.create(size=64)
    manager.abort()
    assert store.partitions[0].fill == fill_before


def test_transaction_rollback_always_expunges_from_the_tail(manager, store):
    """Undo runs in LIFO order, so rolled-back allocations peel off the bump
    extent tail and their space is recovered immediately."""
    root = _seed_root(store)
    fill_before = store.partitions[0].fill
    manager.begin()
    a = manager.create(size=64)
    b = manager.create(size=32)
    manager.write_pointer(root, "a", a)
    manager.write_pointer(root, "b", b)
    manager.abort()
    assert a not in store.placements and b not in store.placements
    assert store.partitions[0].fill == fill_before
    assert validate_store(store).ok


def test_direct_mid_extent_expunge_leaves_hole_until_compaction(store):
    """The expunge API itself tolerates non-tail removal (a hole remains
    until the next compaction rewrites the partition)."""
    root = _seed_root(store)
    middle = store.create(size=64)
    tail = store.create(size=32)
    store.write_pointer(root, "t", tail)
    fill_before = store.partitions[0].fill
    store.expunge(middle)
    assert store.partitions[0].fill == fill_before  # hole, not reclaimed
    assert middle not in store.placements
    # Compaction recovers the hole.
    survivors = sorted(store.partitions[0].residents)
    store.compact_partition(0, survivors)
    assert store.partitions[0].fill == fill_before - 64
    assert store.db_size == sum(o.size for o in store.placements.rows())
    assert validate_store(store).ok


def test_update_and_access_inside_transaction(manager, store):
    root = _seed_root(store)
    manager.begin()
    manager.update(root)
    assert manager.access(root).oid == root
    manager.abort()  # nothing logical to undo
    assert validate_store(store).ok


def test_abort_counts(manager, store):
    _seed_root(store)
    manager.begin()
    manager.abort()
    manager.begin()
    manager.commit()
    assert manager.aborted == 1
    assert manager.committed == 1
