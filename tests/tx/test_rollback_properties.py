"""Property test: abort is a perfect inverse.

For any random operation sequence, the store state after
``begin; ops; abort`` must equal the state before ``begin`` — object table,
pointer state, roots, garbage accounting, remembered sets, and the
policies' clocks — and the store must pass full invariant validation.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from stored import objects

from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.validation import validate_store
from repro.tx.manager import TransactionManager

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)


def _snapshot(store: ObjectStore):
    """A deep logical snapshot of everything rollback must restore.

    Partition-indexed vectors are trimmed of trailing *empty* partitions:
    database growth is physical and is legitimately not undone by an abort
    (the file grew), but an empty partition carries no logical state.
    """

    def _trim(values, empty):
        values = list(values)
        while values and values[-1] == empty:
            values.pop()
        return values

    return {
        "objects": {
            oid: (obj.size, obj.kind, dict(obj.pointers), obj.dead)
            for oid, obj in objects(store).items()
        },
        "placements": {oid: store.placements.locate(oid) for oid in objects(store)},
        "roots": set(store.roots),
        "unlinked": set(store.unlinked),
        "overwrites": store.pointer_overwrites,
        "stores": store.pointer_stores,
        "fgs": _trim((p.pointer_overwrites for p in store.partitions), 0),
        "fills": _trim((p.fill for p in store.partitions), 0),
        "garbage": (
            store.garbage.total_generated,
            store.garbage.total_collected,
            store.garbage.undeclared,
        ),
        "dead_bytes": {k: v for k, v in store.dead_bytes.items() if v},
        "incoming": _trim(
            ({t: dict(s) for t, s in p.incoming.items()} for p in store.partitions),
            {},
        ),
        "db_size": store.db_size,
    }


def _seed_store(rng: random.Random) -> tuple[ObjectStore, list[int]]:
    store = ObjectStore(CFG)
    root = store.create(size=16)
    store.register_root(root)
    oids = [root]
    for _ in range(rng.randrange(3, 12)):
        oid = store.create(size=rng.randrange(16, 300))
        store.write_pointer(root, f"s{oid}", oid)
        oids.append(oid)
    return store, oids


def _random_ops(manager: TransactionManager, oids: list[int], rng: random.Random, count: int):
    """Random transactional operations; keeps a live-oid list for targets."""
    store = manager.store
    live = [oid for oid in oids if oid in store.placements]
    for _ in range(count):
        choice = rng.random()
        if choice < 0.35:
            oid = manager.create(size=rng.randrange(16, 300))
            live.append(oid)
        elif choice < 0.8 and len(live) >= 2:
            src = rng.choice(live)
            target = rng.choice(live + [None])
            # A write may orphan objects; we do not track liveness here, so
            # no dies annotations — this property is about physical undo.
            manager.write_pointer(src, f"w{rng.randrange(6)}", target)
        elif live:
            victim = rng.choice(live)
            if not store.placements.row(victim).dead and victim not in store.roots:
                # Declare a death explicitly (annotation fidelity is not the
                # point here; resurrection symmetry is).
                manager.write_pointer(
                    rng.choice(live), f"kill{rng.randrange(3)}", None, dies=[victim]
                )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**20), st.integers(min_value=0, max_value=25))
def test_abort_restores_exact_state(seed, op_count):
    rng = random.Random(seed)
    store, oids = _seed_store(rng)
    manager = TransactionManager(store)

    before = _snapshot(store)
    manager.begin()
    _random_ops(manager, oids, rng, op_count)
    manager.abort()
    after = _snapshot(store)

    assert after == before


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**20), st.integers(min_value=0, max_value=25))
def test_commit_then_validate(seed, op_count):
    """Committed random transactions always leave a valid store."""
    rng = random.Random(seed)
    store, oids = _seed_store(rng)
    manager = TransactionManager(store)
    manager.begin()
    _random_ops(manager, oids, rng, op_count)
    manager.commit()
    assert validate_store(store, strict=False).ok


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**20),
    st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=12)), max_size=6),
)
def test_interleaved_commits_and_aborts_stay_valid(seed, script):
    """Any interleaving of committed and aborted transactions validates."""
    rng = random.Random(seed)
    store, oids = _seed_store(rng)
    manager = TransactionManager(store)
    for commit, op_count in script:
        manager.begin()
        _random_ops(manager, oids, rng, op_count)
        if commit:
            manager.commit()
        else:
            manager.abort()
    assert validate_store(store, strict=False).ok
