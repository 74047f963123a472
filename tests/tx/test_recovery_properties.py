"""Property: recovery from ANY log prefix yields the committed-only state.

A crash can land after any redo record. For every prefix length ``k`` of a
randomly generated transactional history's log, recovering from the first
``k`` records must reconstruct exactly the state at the last transaction
boundary (commit or abort) durable within that prefix — never a torn,
partially applied transaction.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from stored import objects

from repro.storage.heap import ObjectStore, StoreConfig
from repro.tx.manager import TransactionManager
from repro.tx.recovery import RedoLog, recover

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=8)


def _committed_view(store: ObjectStore):
    """The durable logical state a recovered store must reproduce."""
    return {
        "objects": {
            oid: (obj.size, obj.kind, dict(obj.pointers), obj.dead)
            for oid, obj in objects(store).items()
        },
        "roots": set(store.roots),
    }


#: One transaction: a list of ops plus whether it commits.
_op = st.sampled_from(["create", "root", "pointer", "update"])
_transaction = st.tuples(st.lists(_op, min_size=1, max_size=6), st.booleans())
_history = st.lists(_transaction, min_size=1, max_size=8)


def _execute(history, rng_choices):
    """Run the history; return the log and state snapshots at tx boundaries.

    Snapshots are (records_durable_so_far, committed_state) pairs taken
    when no transaction is in flight — exactly the states a crash-time
    recovery is allowed to land on.
    """
    store = ObjectStore(CFG)
    log = RedoLog()
    manager = TransactionManager(store, redo_log=log)
    snapshots = [(0, _committed_view(store))]
    durable: list = []  # survives commits only — aborts roll creates back
    # A maximal history needs more picks than the strategy draws (up to
    # 8 tx × 6 ops × 2 picks); cycling keeps execution deterministic
    # without ever exhausting the sequence.
    pick = itertools.cycle(rng_choices)

    def choose(seq):
        return seq[next(pick) % len(seq)]

    for ops, commits in history:
        manager.begin()
        tx_created: list = []
        for op in ops:
            live = durable + tx_created
            if op == "create" or not live:
                oid = manager.create(size=32 + 16 * (next(pick) % 4))
                tx_created.append(oid)
            elif op == "root":
                manager.register_root(choose(live))
            elif op == "pointer":
                src, target = choose(live), choose(live)
                manager.write_pointer(src, f"slot{next(pick) % 3}", target)
            else:  # update
                manager.update(choose(live))
        if commits:
            manager.commit()
            durable.extend(tx_created)
        else:
            manager.abort()
        snapshots.append((len(log.records), _committed_view(store)))
    return log, snapshots


@given(
    history=_history,
    rng_choices=st.lists(st.integers(min_value=0, max_value=2**16), min_size=64, max_size=64),
)
@settings(max_examples=40, deadline=None)
def test_recovery_from_every_log_prefix(history, rng_choices):
    log, snapshots = _execute(history, rng_choices)

    for k in range(len(log.records) + 1):
        truncated = RedoLog(records=list(log.records[:k]))
        recovered = recover(truncated, store_config=CFG)
        # The reference: the last boundary state durable within the prefix.
        expected = max(
            (snap for snap in snapshots if snap[0] <= k), key=lambda snap: snap[0]
        )[1]
        assert _committed_view(recovered) == expected, (
            f"prefix k={k} of {len(log.records)} records did not recover to "
            "the last durable transaction boundary"
        )


@given(
    history=_history,
    rng_choices=st.lists(st.integers(min_value=0, max_value=2**16), min_size=64, max_size=64),
)
@settings(max_examples=25, deadline=None)
def test_truncate_uncommitted_drops_only_inflight_records(history, rng_choices):
    log, _ = _execute(history, rng_choices)
    # History always ends at a boundary: nothing is in flight to drop.
    before = log.records
    assert log.truncate_uncommitted() == 0
    assert log.records == before

    # Start a transaction and crash mid-way: exactly those records drop.
    # The txid must be fresh — a recycled txid with an old commit record
    # would look committed.
    store = recover(log, store_config=CFG)
    manager = TransactionManager(store, redo_log=log)
    manager.begin(txid=10_000)
    manager.create(size=32)
    dropped = log.truncate_uncommitted()
    assert dropped == 2  # begin + create
    assert log.records == before
