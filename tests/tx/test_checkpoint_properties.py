"""Property: checkpoint + suffix recovery equals full-log recovery.

For a random transactional history, take ANY transaction boundary ``k``
(a point where no transaction is open — the only points the service
checkpoints at). Recovering the prefix, snapshotting it, installing the
snapshot in a fresh log and appending the suffix must recover to exactly
the same state as replaying the full log — which in turn must match the
live store that executed the committed transactions. Checkpoints are a
pure compression of the log, never a semantic change.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.collector import CopyingCollector
from repro.storage.heap import ObjectStore, StoreConfig
from repro.tx.manager import TransactionManager
from repro.tx.recovery import RedoLog, build_checkpoint, recover, recover_with_info

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=8)


def _full_view(store: ObjectStore):
    """Byte-level logical state, including the accounting clocks."""
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


def _committed_view(store: ObjectStore):
    """The durable state a recovered store must share with the live one."""
    return {
        "objects": {
            oid: (obj.size, obj.kind, dict(obj.pointers), obj.dead)
            for oid, obj in store.objects.items()
        },
        "roots": set(store.roots),
    }


_op = st.sampled_from(["create", "root", "pointer", "update", "kill"])
_transaction = st.tuples(st.lists(_op, min_size=1, max_size=6), st.booleans())
_history = st.lists(_transaction, min_size=1, max_size=8)

#: The same histories plus writes that declare a death ("die").
_op_with_deaths = st.sampled_from(
    ["create", "root", "pointer", "update", "kill", "die"]
)
_history_with_deaths = st.lists(
    st.tuples(st.lists(_op_with_deaths, min_size=1, max_size=6), st.booleans()),
    min_size=1,
    max_size=8,
)


def _execute(history, rng_choices, at_boundary=None):
    """Run the history; return the log and the transaction boundaries.

    Boundaries are (records_durable_so_far, live_committed_state) pairs
    taken between transactions — the only positions the service builds
    checkpoints at. ``at_boundary(store, log, pick)`` runs at each of them
    (it may collect and checkpoint, like the service does).
    """
    store = ObjectStore(CFG)
    log = RedoLog()
    manager = TransactionManager(store, redo_log=log)
    boundaries = [(0, _committed_view(store))]
    durable: list = []
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
            elif op == "kill":
                src = choose(live)
                manager.write_pointer(src, f"slot{next(pick) % 3}", None)
            elif op == "die":
                src, victim = choose(live), choose(live)
                manager.write_pointer(
                    src, f"slot{next(pick) % 3}", None, dies=(victim,)
                )
            else:  # update
                manager.update(choose(live))
        if commits:
            manager.commit()
            durable.extend(tx_created)
        else:
            manager.abort()
        boundaries.append((len(log.records), _committed_view(store)))
        if at_boundary is not None:
            at_boundary(store, log, pick)
            durable = [oid for oid in durable if oid in store.objects]
    return store, log, boundaries


@given(
    history=_history,
    rng_choices=st.lists(
        st.integers(min_value=0, max_value=2**16), min_size=64, max_size=64
    ),
)
@settings(max_examples=30, deadline=None)
def test_checkpoint_at_every_boundary_equals_full_replay(history, rng_choices):
    live, log, boundaries = _execute(history, rng_choices)
    full_recovered = recover(log, store_config=CFG)
    reference = _full_view(full_recovered)
    # Full replay reconstructs the live committed state (sanity anchor).
    assert _committed_view(full_recovered) == _committed_view(live)

    for k, _ in boundaries:
        # Recover the prefix exactly as a crashed service would, then
        # checkpoint it at this quiescent point.
        prefix_store = recover(
            RedoLog(records=list(log.records[:k])), store_config=CFG
        )
        snapshot = build_checkpoint(prefix_store, event_index=k)

        compacted = RedoLog()
        compacted.install_checkpoint(snapshot)
        for record in log.records[k:]:
            compacted.append(record)

        recovered, info = recover_with_info(compacted, store_config=CFG)
        assert info.from_checkpoint
        assert info.checkpoint_event_index == k
        assert info.records_replayed == len(log.records) - k
        assert _full_view(recovered) == reference, (
            f"checkpoint at boundary k={k} of {len(log.records)} records "
            "diverged from full-log recovery"
        )


@given(
    history=_history,
    rng_choices=st.lists(
        st.integers(min_value=0, max_value=2**16), min_size=64, max_size=64
    ),
)
@settings(max_examples=20, deadline=None)
def test_checkpointed_recovery_survives_a_torn_suffix(history, rng_choices):
    """Checkpoint + suffix + an in-flight tail still drops the tail."""
    live, log, boundaries = _execute(history, rng_choices)
    k, _ = boundaries[len(boundaries) // 2]
    prefix_store = recover(RedoLog(records=list(log.records[:k])), store_config=CFG)
    compacted = RedoLog()
    compacted.install_checkpoint(build_checkpoint(prefix_store, event_index=k))
    for record in log.records[k:]:
        compacted.append(record)

    # Crash mid-transaction after the last boundary: begin + one create,
    # no commit record.
    manager = TransactionManager(
        recover(log, store_config=CFG), redo_log=compacted
    )
    manager.begin()
    manager.create(size=16)

    recovered = recover(compacted, store_config=CFG)
    assert _committed_view(recovered) == _committed_view(live)


# ----------------------------------------------------------------------
# The columnar snapshot against the row-shaped builder it replaced
# ----------------------------------------------------------------------


def _row_checkpoint(store: ObjectStore):
    """The old builder, kept as the oracle: one tuple per object and slot."""
    objects = tuple(
        (oid, obj.size, obj.kind.value, obj.dead)
        for oid, obj in sorted(store.objects.items())
    )
    pointers = tuple(
        (oid, slot, target)
        for oid, obj in sorted(store.objects.items())
        for slot, target in sorted(obj.pointers.items())
    )
    return objects, pointers


def _row_estimated_bytes(objects, pointers, roots, unlinked) -> int:
    return (
        64
        + 48 * len(objects)
        + 24 * len(pointers)
        + 8 * (len(roots) + len(unlinked))
    )


@given(
    history=_history_with_deaths,
    rng_choices=st.lists(
        st.integers(min_value=0, max_value=2**16), min_size=64, max_size=64
    ),
)
@settings(max_examples=40, deadline=None)
def test_columns_equal_the_row_builder_and_round_trip(history, rng_choices):
    """At every boundary of a history with deaths and collections between
    transactions: the columns zip to the old rows, the modelled size is the
    old formula's, and a store recovered from the truncated log snapshots
    to the very snapshot it was recovered from."""
    checked = []

    def checkpoint_like_the_service(store, log, pick):
        if next(pick) % 2 and store.partitions:
            CopyingCollector(store).collect(next(pick) % len(store.partitions))
        snapshot = build_checkpoint(store, event_index=len(checked))
        objects, pointers = _row_checkpoint(store)
        assert (
            tuple(zip(snapshot.oids, snapshot.sizes, snapshot.kinds, snapshot.dead))
            == objects
        )
        assert (
            tuple(
                zip(
                    snapshot.pointer_srcs,
                    snapshot.pointer_slots,
                    snapshot.pointer_targets,
                )
            )
            == pointers
        )
        assert snapshot.estimated_bytes == _row_estimated_bytes(
            objects, pointers, snapshot.roots, snapshot.unlinked
        )
        log.install_checkpoint(snapshot)
        recovered = recover(log, store_config=CFG)
        assert build_checkpoint(recovered, event_index=len(checked)) == snapshot
        checked.append(snapshot)

    _execute(history, rng_choices, at_boundary=checkpoint_like_the_service)
    assert len(checked) == len(history)
