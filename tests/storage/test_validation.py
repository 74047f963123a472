"""Tests for the store invariant validator."""

import pytest

from repro.gc.collector import CopyingCollector
from repro.oo7.builder import build_database
from repro.oo7.config import TINY
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.validation import (
    StoreInvariantError,
    StoreValidator,
    validate_store,
)

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)


@pytest.fixture
def store() -> ObjectStore:
    store = ObjectStore(CFG)
    root = store.create(size=10)
    store.register_root(root)
    a = store.create(size=100)
    b = store.create(size=920)  # does not fit partition 0 -> partition 1
    store.write_pointer(root, "a", a)
    store.write_pointer(a, "b", b)
    return store


def test_healthy_store_passes(store):
    report = validate_store(store)
    assert report.ok
    assert report.violations == []


def test_fresh_oo7_database_passes():
    db = build_database(TINY, store_config=CFG)
    assert validate_store(db.store).ok


def test_validation_after_collections():
    db = build_database(TINY, store_config=CFG)
    store = db.store
    collector = CopyingCollector(store)
    for pid in range(store.partition_count):
        collector.collect(pid)
    assert validate_store(store).ok


def test_detects_placement_overlap(store):
    # Corrupt: force two objects onto the same offset.
    oids = sorted(store.partitions[0].residents)
    table = store.placements
    table.offs[oids[1]] = table.locate(oids[0])[1]
    report = StoreValidator().validate(store)
    assert any("placements" in v for v in report.violations)


def test_detects_placement_count_drift(store):
    # The count is kept by hand (fused replay, bulk reclaim); the rows the
    # validator counts in the columns cannot see it drift.
    store.placements._count += 5
    report = validate_store(store, strict=False)
    assert report.violations == ["[placements] len(placements) 8 != 3 rows"]


def test_detects_a_torn_row(store):
    # A placed row without its pointer dict, and an empty row still
    # flagged dead: neither is an object nor a hole.
    oid = min(store.partitions[0].residents)
    store.placements.ptrs[oid] = None
    hole = store.placements.dense_limit - 1
    store.placements.dead[hole] = 1
    report = validate_store(store, strict=False)
    assert f"[placements] row {oid} is torn (placed: True)" in report.violations
    assert f"[placements] row {hole} is torn (placed: False)" in report.violations


def test_detects_resident_mismatch(store):
    store.partitions[0].residents.add(99999)
    report = StoreValidator().validate(store)
    assert not report.ok


def test_detects_overfilled_partition(store):
    store.partitions[0].fill = store.partitions[0].capacity + 1
    report = StoreValidator().validate(store)
    assert any("partitions" in v for v in report.violations)


def test_detects_free_ledger_drift(store):
    store._partition_free[0] += 1
    report = validate_store(store, strict=False)
    assert report.violations == [
        "[first-fit] partition 0: free-byte ledger 915 != capacity - fill 914"
    ]


def test_detects_pid_that_is_not_the_list_index(store):
    store.partitions[0].pid = 7
    report = validate_store(store, strict=False)
    assert "[first-fit] partition at index 0 has pid 7" in report.violations


def test_detects_a_partition_with_room_off_the_open_list(store):
    store._open_partitions.remove(0)
    store._open_set.discard(0)
    store._fit_cursor.clear()  # positions shifted
    report = validate_store(store, strict=False)
    assert report.violations == ["[first-fit] partition 0 has room but is not open"]


def test_detects_a_fit_cursor_past_room(store):
    # Partition 0 has 914 bytes free: a 100-byte object must not skip it.
    assert store._fit_cursor
    store._fit_cursor[100] = 1
    report = validate_store(store, strict=False)
    assert report.violations == [
        "[first-fit] size 100: cursor 1 skips partitions [0] with room"
    ]
    store._fit_cursor[100] = 2
    report = validate_store(store, strict=False)
    assert report.violations == ["[first-fit] size 100: cursor 2 off the open list"]


def test_detects_dangling_live_pointer(store):
    # Remove the target object behind the store's back.
    victim = next(obj for obj in store.placements.rows() if obj.pointers)
    target = next(t for t in victim.pointers.values() if t is not None)
    store.partitions[store.partition_of(target)].residents.discard(target)
    store.placements.discard(target)
    report = StoreValidator().validate(store)
    assert any("pointers" in v or "remembered" in v for v in report.violations)


def test_detects_missing_remembered_entry(store):
    b_pid = 1
    store.partitions[b_pid].incoming.clear()
    report = StoreValidator().validate(store)
    assert any("remembered-sets" in v for v in report.violations)


def test_detects_extra_remembered_entry(store):
    store.partitions[1].remember(123456, next(iter(store.partitions[1].residents)))
    report = StoreValidator().validate(store)
    assert any("remembered-sets" in v for v in report.violations)


def test_detects_garbage_ledger_drift(store):
    root = next(iter(store.roots))
    victim = store.create(size=50)
    store.write_pointer(root, "v", victim)
    store.write_pointer(root, "v", None, dies=[victim])
    store.dead_bytes[store.partition_of(victim)] += 10
    report = StoreValidator().validate(store)
    assert any("garbage" in v for v in report.violations)


def test_strict_mode_raises(store):
    store.partitions[0].fill = store.partitions[0].capacity + 1
    with pytest.raises(StoreInvariantError):
        validate_store(store, strict=True)


def test_non_strict_mode_reports(store):
    store.partitions[0].fill = store.partitions[0].capacity + 1
    report = validate_store(store, strict=False)
    assert not report.ok


def test_simulation_debug_mode_validates():
    from repro.core.fixed import FixedRatePolicy
    from repro.sim.simulator import Simulation, SimulationConfig
    from repro.workload.application import Oo7Application

    sim = Simulation(
        policy=FixedRatePolicy(25),
        config=SimulationConfig(
            store=StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4),
            preamble_collections=0,
            validate_every=1,
        ),
    )
    result = sim.run(Oo7Application(TINY, seed=0).events())
    assert result.summary.collections > 0  # every collection validated cleanly
