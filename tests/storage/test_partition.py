"""Unit tests for partitions: allocation, remembered sets, FGS counters."""

import pytest

from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.partition import Partition


@pytest.fixture
def partition() -> Partition:
    return Partition(pid=0, capacity=1000)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Partition(pid=0, capacity=0)


def test_bump_allocation_assigns_consecutive_offsets(partition):
    assert partition.bump(1, 100) == 0
    assert partition.bump(2, 250) == 100
    assert partition.fill == 350
    assert partition.free_bytes == 650
    assert partition.residents == {1, 2}


def test_exact_fit_allocation_succeeds(partition):
    assert partition.fits(1000)
    partition.bump(1, 1000)
    assert partition.free_bytes == 0
    assert not partition.fits(1)


def test_placement_pages_single_and_multi_page():
    """``ObjectStore.pages_of``: the pages an object's placement spans."""
    store = ObjectStore(StoreConfig(page_size=256, partition_pages=8))
    single = store.create(size=50, oid=1)  # [0, 50)
    store.create(size=150, oid=2)  # [50, 200)
    spanning = store.create(size=100, oid=3)  # [200, 300)
    large = store.create(size=1024, oid=4)  # [300, 1324)
    assert store.pages_of(single) == [(0, 0)]
    assert store.pages_of(spanning) == [(0, 0), (0, 1)]
    assert store.pages_of(large) == [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]


def test_reset_for_compaction_clears_space_residents_and_po(partition):
    partition.bump(1, 100)
    partition.pointer_overwrites = 7
    partition.reset_for_compaction()
    assert partition.fill == 0
    assert partition.residents == set()
    assert partition.pointer_overwrites == 0


def test_remember_and_forget(partition):
    partition.bump(5, 10)
    partition.remember(source=100, target=5)
    partition.remember(source=101, target=5)
    assert partition.externally_referenced() == {5}
    partition.forget(source=100, target=5)
    assert partition.externally_referenced() == {5}
    partition.forget(source=101, target=5)
    assert partition.externally_referenced() == set()


def test_forget_unknown_reference_is_silent(partition):
    partition.forget(source=1, target=2)  # must not raise


def test_drop_incoming_removes_all_sources(partition):
    partition.remember(source=1, target=9)
    partition.remember(source=2, target=9)
    partition.drop_incoming(9)
    assert partition.externally_referenced() == set()


def test_page_counts():
    partition = Partition(pid=0, capacity=1024)
    assert partition.page_count(page_size=256) == 4
    assert partition.used_pages(page_size=256) == 0
    partition.bump(1, 257)
    assert partition.used_pages(page_size=256) == 2


def test_used_pages_rounds_up():
    partition = Partition(pid=0, capacity=1000)
    partition.bump(1, 1)
    assert partition.used_pages(page_size=256) == 1
