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
    clobbered = store.placements[oids[1]]
    clobbered.offset = store.placements[oids[0]].offset
    store.placements[oids[1]] = clobbered
    report = StoreValidator().validate(store)
    assert any("placements" in v for v in report.violations)


def test_detects_placement_count_drift(store):
    # The count is kept by hand (fused replay, bulk reclaim); the key sets
    # the validator compares first cannot see it drift.
    store.placements._count += 5
    report = validate_store(store, strict=False)
    assert report.violations == ["[placements] len(placements) 8 != len(objects) 3"]


def test_detects_placement_size_drift(store):
    oid = min(store.partitions[0].residents)
    store.placements.sizes[oid] -= 1
    report = validate_store(store, strict=False)
    assert report.violations == [
        f"[placements] object {oid}: placement size 9 != object size 10"
    ]


def test_detects_resident_mismatch(store):
    store.partitions[0].residents.add(99999)
    report = StoreValidator().validate(store)
    assert not report.ok


def test_detects_overfilled_partition(store):
    store.partitions[0].fill = store.partitions[0].capacity + 1
    report = StoreValidator().validate(store)
    assert any("partitions" in v for v in report.violations)


def test_detects_dangling_live_pointer(store):
    # Remove the target object behind the store's back.
    victim = next(
        oid
        for oid, obj in store.objects.items()
        if obj.pointers
        for _ in [None]
    )
    target = next(iter(store.objects[victim].targets()))
    placement = store.placements.pop(target)
    store.partitions[placement.partition].residents.discard(target)
    del store.objects[target]
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
