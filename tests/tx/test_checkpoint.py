"""Checkpoint records: build, install, restore, and suffix-only recovery."""

import dataclasses

import pytest

from repro.storage.heap import ObjectStore, StoreConfig
from repro.tx.manager import TransactionManager
from repro.tx.recovery import (
    RedoLog,
    build_checkpoint,
    recover,
    recover_with_info,
)
from repro.tx.wal import WriteAheadLog

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=8)


def _empty_snapshot(event_index, **overrides):
    empty = build_checkpoint(ObjectStore(CFG), event_index)
    return dataclasses.replace(empty, **overrides)


def _view(store: ObjectStore):
    return {
        "objects": {
            oid: (obj.size, obj.kind, dict(obj.pointers), obj.dead)
            for oid, obj in store.objects.items()
        },
        "roots": set(store.roots),
        "unlinked": set(store.unlinked),
        "garbage": (
            store.garbage.total_generated,
            store.garbage.total_collected,
            store.garbage.undeclared,
        ),
        "clocks": (
            store.pointer_overwrites,
            store.pointer_stores,
            store.bytes_allocated_total,
        ),
    }


def _history(store, manager):
    """A few committed transactions with pointers, roots and deaths."""
    manager.begin(1)
    a = manager.create(size=64)
    b = manager.create(size=64)
    manager.write_pointer(a, "next", b)
    manager.register_root(a)
    manager.commit(1)
    manager.begin(2)
    c = manager.create(size=32)
    manager.write_pointer(b, "next", c)
    manager.commit(2)
    manager.begin(3)
    manager.write_pointer(b, "next", None, dies=(c,))
    manager.commit(3)
    return a, b, c


def test_checkpoint_roundtrip_restores_everything():
    store = ObjectStore(CFG)
    log = RedoLog()
    manager = TransactionManager(store, redo_log=log)
    _history(store, manager)

    snapshot = build_checkpoint(store, event_index=17)
    assert snapshot.event_index == 17
    assert snapshot.estimated_bytes > 0
    log.install_checkpoint(snapshot)

    recovered, info = recover_with_info(log, store_config=CFG)
    assert info.from_checkpoint
    assert info.checkpoint_event_index == 17
    assert info.records_replayed == 0
    assert _view(recovered) == _view(store)


def test_suffix_after_checkpoint_is_replayed_on_top():
    store = ObjectStore(CFG)
    log = RedoLog()
    manager = TransactionManager(store, redo_log=log)
    _history(store, manager)
    log.install_checkpoint(build_checkpoint(store, event_index=9))

    manager.begin(4)
    d = manager.create(size=16)
    manager.write_pointer(1, "extra", d)
    manager.commit(4)

    recovered, info = recover_with_info(log, store_config=CFG)
    assert info.from_checkpoint
    assert info.records_replayed == 4  # begin, create, write, commit
    assert _view(recovered) == _view(store)


def test_uncommitted_suffix_is_dropped():
    store = ObjectStore(CFG)
    log = RedoLog()
    manager = TransactionManager(store, redo_log=log)
    _history(store, manager)
    log.install_checkpoint(build_checkpoint(store, event_index=9))
    reference = _view(store)

    manager.begin(5)
    manager.create(size=16)  # never commits: in flight at the "crash"

    recovered, _ = recover_with_info(log, store_config=CFG)
    assert _view(recovered) == reference


def test_reused_txid_does_not_resurrect_in_flight_records():
    """Regression: recovery is bracket-scoped, not committed-txid-set based.

    Crash/resume cycles legitimately reuse auto-commit txids within one
    log. An in-flight transaction whose txid an earlier *committed*
    incarnation used must still be dropped.
    """
    log = RedoLog()
    # First incarnation of txid -1: committed create of oid 1.
    log.begin(-1)
    log.create(-1, 1, 64, None, ())
    log.commit(-1)
    # Second incarnation of txid -1: in flight at the crash.
    log.begin(-1)
    log.create(-1, 2, 64, None, ())

    recovered = recover(log, store_config=CFG)
    assert 1 in recovered.objects
    assert 2 not in recovered.objects


def test_orphaned_records_are_superseded_by_a_new_begin():
    """A later begin of the same txid discards the orphan's buffered ops."""
    log = RedoLog()
    log.begin(-1)
    log.create(-1, 1, 64, None, ())  # orphan: no commit, no abort
    log.begin(-1)
    log.create(-1, 2, 64, None, ())
    log.commit(-1)

    recovered = recover(log, store_config=CFG)
    assert 2 in recovered.objects
    assert 1 not in recovered.objects


def test_install_checkpoint_truncates_and_counts():
    log = RedoLog()
    log.begin(1)
    log.create(1, 1, 64, None, ())
    log.commit(1)
    assert log.appended_total == 3
    snapshot = _empty_snapshot(5)
    dropped = log.install_checkpoint(snapshot)
    assert dropped == 3
    assert log.truncated_total == 3
    assert log.appended_total == 4  # + the checkpoint record itself
    assert log.checkpoints_installed == 1
    assert log.suffix_length == 0
    assert log.last_checkpoint() is snapshot
    log.begin(2)
    assert log.suffix_length == 1


def test_truncate_uncommitted_keeps_checkpoint_records():
    log = RedoLog()
    log.install_checkpoint(_empty_snapshot(1))
    log.begin(7)
    log.create(7, 1, 64, None, ())
    dropped = log.truncate_uncommitted()
    assert dropped == 2
    assert [r.kind for r in log.records] == ["checkpoint"]


def test_recovery_without_checkpoint_reports_full_replay():
    store = ObjectStore(CFG)
    log = RedoLog()
    manager = TransactionManager(store, redo_log=log)
    _history(store, manager)
    recovered, info = recover_with_info(log, store_config=CFG)
    assert not info.from_checkpoint
    assert info.records_replayed == len(log.records)
    assert _view(recovered) == _view(store)


def test_wal_checkpoint_pays_modelled_io():
    store = ObjectStore(CFG)
    wal = WriteAheadLog(store.iostats, page_size=CFG.page_size)
    before = wal.stats.pages_written
    wal.checkpoint(10_000)
    assert wal.stats.checkpoints == 1
    assert wal.stats.pages_written > before
    assert wal.stats.records_by_type["checkpoint"] == 1
    assert "checkpoints" in wal.stats.as_metrics()
    with pytest.raises(ValueError):
        wal.checkpoint(-1)


def test_estimated_bytes_scales_with_content():
    empty = _empty_snapshot(0)
    full = _empty_snapshot(
        0,
        oids=tuple(range(100)),
        sizes=(64,) * 100,
        kinds=("generic",) * 100,
        dead=(False,) * 100,
        pointer_srcs=tuple(range(100)),
        pointer_slots=("next",) * 100,
        pointer_targets=tuple(range(1, 101)),
        roots=(1, 2, 3),
    )
    assert empty.estimated_bytes == 64
    assert full.estimated_bytes == 64 + 48 * 100 + 24 * 100 + 8 * 3
