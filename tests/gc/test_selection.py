"""Unit tests for partition-selection policies."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gc.selection import (
    MostGarbageOracleSelection,
    RandomSelection,
    RoundRobinSelection,
    UpdatedPointerSelection,
    make_selection_policy,
)
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.partition import Partition

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)


@pytest.fixture
def store() -> ObjectStore:
    """Three populated partitions with distinct FGS counters and garbage."""
    store = ObjectStore(CFG)
    root = store.create(size=10)
    store.register_root(root)
    occupants = [store.create(size=1020) for _ in range(3)]  # partitions 1..3
    assert store.partition_count == 4
    store.partitions[1].pointer_overwrites = 5
    store.partitions[2].pointer_overwrites = 9
    store.partitions[3].pointer_overwrites = 1
    # Oracle garbage: most in partition 3.
    victim = occupants[2]
    store.write_pointer(root, "v", victim)
    store.write_pointer(root, "v", None, dies=[victim])
    return store


def test_updated_pointer_selects_max_overwrites(store):
    assert UpdatedPointerSelection().select(store) == 2


def test_updated_pointer_breaks_ties_by_lowest_pid(store):
    store.partitions[1].pointer_overwrites = 9  # tie with partition 2
    assert UpdatedPointerSelection().select(store) == 1


def test_updated_pointer_none_when_all_partitions_empty():
    store = ObjectStore(CFG)
    assert UpdatedPointerSelection().select(store) is None


def _select_by_key(store):
    """UPDATEDPOINTER as a per-candidate key: highest counter, then lowest
    pid, over the partitions with residents."""
    candidates = [p.pid for p in store.partitions if p.residents]
    if not candidates:
        return None
    return max(candidates, key=lambda pid: (store.partitions[pid].pointer_overwrites, -pid))


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=6)), max_size=40
    )
)
@example([])
@example([(False, 3), (False, 0), (False, 6)])
@settings(max_examples=300, deadline=None)
def test_updated_pointer_matches_the_per_candidate_key(states):
    """Small counters force ties; an all-empty heap (every flag False, or
    no partition at all) selects nothing."""
    store = ObjectStore(CFG)
    for pid, (occupied, overwrites) in enumerate(states):
        partition = Partition(pid=pid, capacity=CFG.partition_size)
        partition.residents = {pid} if occupied else set()
        partition.pointer_overwrites = overwrites
        store.partitions.append(partition)
    assert UpdatedPointerSelection().select(store) == _select_by_key(store)


def test_random_selection_is_seeded_and_in_range(store):
    first = RandomSelection(seed=7)
    second = RandomSelection(seed=7)
    picks_a = [first.select(store) for _ in range(10)]
    picks_b = [second.select(store) for _ in range(10)]
    assert picks_a == picks_b
    assert all(pick in range(4) for pick in picks_a)


def test_random_selection_skips_empty_partitions():
    store = ObjectStore(CFG)
    root = store.create(size=10)
    store.register_root(root)
    filler = store.create(size=1020)  # partition 1
    store.write_pointer(root, "x", filler)
    store.write_pointer(root, "x", None, dies=[filler])
    store.compact_partition(1, [])  # partition 1 now empty
    policy = RandomSelection(seed=0)
    assert all(policy.select(store) == 0 for _ in range(10))


def test_round_robin_cycles(store):
    policy = RoundRobinSelection()
    picks = [policy.select(store) for _ in range(6)]
    assert picks == [0, 1, 2, 3, 0, 1]


def test_most_garbage_oracle_selects_richest_partition(store):
    assert MostGarbageOracleSelection().select(store) == 3


def test_factory_constructs_each_policy():
    for name, cls in [
        ("updated-pointer", UpdatedPointerSelection),
        ("random", RandomSelection),
        ("round-robin", RoundRobinSelection),
        ("most-garbage-oracle", MostGarbageOracleSelection),
    ]:
        assert isinstance(make_selection_policy(name), cls)


def test_factory_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown partition selection"):
        make_selection_policy("nope")
