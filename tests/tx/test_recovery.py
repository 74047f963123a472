"""Crash-recovery tests: replaying the redo log reconstructs committed state."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from stored import objects

from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.object_model import ObjectKind
from repro.storage.validation import validate_store
from repro.tx.manager import TransactionManager
from repro.tx.recovery import RedoLog, recover

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)


def _logical_state(store: ObjectStore):
    """The durable logical state recovery must reproduce."""
    return {
        "objects": {
            oid: (obj.size, obj.kind, dict(obj.pointers), obj.dead)
            for oid, obj in objects(store).items()
        },
        "roots": set(store.roots),
        "garbage_generated": store.garbage.total_generated,
    }


def _fresh_manager():
    store = ObjectStore(CFG)
    log = RedoLog()
    manager = TransactionManager(store, redo_log=log)
    return store, log, manager


def test_recover_empty_log():
    store = recover(RedoLog(), store_config=CFG)
    assert objects(store) == {}


def test_committed_transaction_is_recovered():
    store, log, manager = _fresh_manager()
    manager.begin()
    root = manager.create(size=32)
    manager.register_root(root)
    child = manager.create(size=64, kind=ObjectKind.DOCUMENT)
    manager.write_pointer(root, "doc", child)
    manager.commit()

    recovered = recover(log, store_config=CFG)
    assert _logical_state(recovered) == _logical_state(store)
    assert validate_store(recovered).ok


def test_uncommitted_transaction_is_not_recovered():
    store, log, manager = _fresh_manager()
    manager.begin()
    root = manager.create(size=32)
    manager.register_root(root)
    manager.commit()
    # A transaction in flight at the "crash": begin without commit.
    manager.begin()
    manager.create(size=500)

    recovered = recover(log, store_config=CFG)
    assert set(objects(recovered)) == {root}


def test_aborted_transaction_is_not_recovered():
    store, log, manager = _fresh_manager()
    manager.begin()
    root = manager.create(size=32)
    manager.register_root(root)
    manager.commit()
    manager.begin()
    manager.create(size=500)
    manager.abort()

    recovered = recover(log, store_config=CFG)
    assert _logical_state(recovered) == _logical_state(store)


def test_deaths_are_replayed_into_oracle_accounting():
    store, log, manager = _fresh_manager()
    manager.begin()
    root = manager.create(size=32)
    manager.register_root(root)
    victim = manager.create(size=100)
    manager.write_pointer(root, "v", victim)
    manager.commit()
    manager.begin()
    manager.write_pointer(root, "v", None, dies=[victim])
    manager.commit()

    recovered = recover(log, store_config=CFG)
    assert recovered.placements.row(victim).dead
    assert recovered.actual_garbage_bytes == 100
    assert recovered.check_death_annotations() == set()


def test_recovery_of_transactional_workload():
    """End-to-end: run the transactional churn workload through a logging
    manager, 'crash', recover, and compare logical states."""
    from repro.events import (
        AbortTransactionEvent,
        BeginTransactionEvent,
        CommitTransactionEvent,
        CreateEvent,
        PhaseMarkerEvent,
        PointerWriteEvent,
        RootEvent,
    )
    from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

    spec = TransactionalSpec(transactions=40, abort_probability=0.3)
    workload = TransactionalWorkload(spec, seed=6, initial_clusters=10)

    store = ObjectStore(CFG)
    log = RedoLog()
    manager = TransactionManager(store, redo_log=log)

    # Setup events run outside transactions in the simulator; here we wrap
    # them in one big committed transaction so the log captures everything.
    events = list(workload.events())
    manager.begin(txid=100_000)
    for event in events:
        if isinstance(event, BeginTransactionEvent):
            if manager.in_transaction:
                manager.commit()
            manager.begin(event.txid)
        elif isinstance(event, CommitTransactionEvent):
            manager.commit(event.txid)
        elif isinstance(event, AbortTransactionEvent):
            manager.abort(event.txid)
        elif isinstance(event, CreateEvent):
            manager.create(
                size=event.size, kind=event.kind, pointers=dict(event.pointers), oid=event.oid
            )
        elif isinstance(event, PointerWriteEvent):
            manager.write_pointer(event.src, event.slot, event.target, dies=event.dies)
        elif isinstance(event, RootEvent):
            manager.register_root(event.oid)
        elif isinstance(event, PhaseMarkerEvent):
            pass
    if manager.in_transaction:
        manager.commit()

    recovered = recover(log, store_config=CFG)
    assert _logical_state(recovered) == _logical_state(store)
    assert validate_store(recovered).ok


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**20),
    st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=10)), max_size=5),
)
def test_recovery_equals_survivor_state_property(seed, script):
    """Property: for any commit/abort script, recovery reproduces exactly
    the logical state the live store ended with."""
    rng = random.Random(seed)
    store = ObjectStore(CFG)
    log = RedoLog()
    manager = TransactionManager(store, redo_log=log)

    # Seed inside a committed transaction so the log is complete.
    manager.begin()
    root = manager.create(size=16)
    manager.register_root(root)
    live = [root]
    for _ in range(rng.randrange(2, 6)):
        oid = manager.create(size=rng.randrange(16, 200))
        manager.write_pointer(root, f"s{oid}", oid)
        live.append(oid)
    manager.commit()

    for commit, op_count in script:
        manager.begin()
        created_this_txn = []
        for _ in range(op_count):
            if rng.random() < 0.4:
                oid = manager.create(size=rng.randrange(16, 200))
                created_this_txn.append(oid)
                live.append(oid)
            elif len(live) >= 2:
                src = rng.choice(live)
                target = rng.choice(live + [None])
                manager.write_pointer(src, f"w{rng.randrange(4)}", target)
        if commit:
            manager.commit()
        else:
            manager.abort()
            for oid in created_this_txn:
                live.remove(oid)

    recovered = recover(log, store_config=CFG)
    assert _logical_state(recovered) == _logical_state(store)
