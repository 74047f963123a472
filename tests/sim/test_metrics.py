"""Unit tests for the measurement machinery (sampler, summaries)."""

import pytest

from repro.gc.collector import CollectionResult
from repro.sim.metrics import RunningMean, Sampler
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.iostats import IOCategory, IOStats

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)


def _result(number=0, reclaimed=100, po=5) -> CollectionResult:
    return CollectionResult(
        collection_number=number,
        partition=0,
        reclaimed_bytes=reclaimed,
        reclaimed_objects=1,
        live_bytes=50,
        live_objects=1,
        gc_reads=4,
        gc_writes=2,
        pointer_overwrites_at_selection=po,
        overwrite_clock=42,
    )


def test_running_mean():
    mean = RunningMean()
    assert mean.mean == 0.0
    for value in (1.0, 2.0, 3.0):
        mean.add(value)
    assert mean.mean == pytest.approx(2.0)
    assert mean.minimum == 1.0
    assert mean.maximum == 3.0


def test_sampler_validation():
    with pytest.raises(ValueError):
        Sampler(preamble_collections=-1)


def test_preamble_excludes_early_samples():
    """Only events after the preamble-th collection contribute to means."""
    sampler = Sampler(preamble_collections=1)
    store = ObjectStore(CFG)
    iostats = store.iostats
    root = store.create(size=100)
    store.register_root(root)

    # Preamble: garbage fraction 0 sampled — must NOT enter the mean.
    sampler.on_event(store, iostats)
    assert sampler.summary(store, iostats).garbage_fraction_mean == 0.0

    sampler.on_collection(_result(0), store, 100.0, None, None)

    # Now create garbage: fraction becomes 0.5.
    victim = store.create(size=100)
    store.write_pointer(root, "x", victim)
    store.write_pointer(root, "x", None, dies=[victim])
    sampler.on_event(store, iostats)

    summary = sampler.summary(store, iostats)
    assert summary.significant
    assert summary.garbage_fraction_mean == pytest.approx(0.5)


def test_gc_io_fraction_over_significant_region():
    sampler = Sampler(preamble_collections=1)
    store = ObjectStore(CFG)
    iostats = IOStats()
    # Preamble I/O: should be excluded.
    iostats.record_read(IOCategory.APPLICATION, 1000)
    iostats.record_read(IOCategory.COLLECTOR, 1000)
    sampler.on_event(store, iostats)
    sampler.on_collection(_result(0), store, 100.0, None, None)
    # First post-preamble event snapshots the baseline.
    sampler.on_event(store, iostats)
    # Significant region: 90 app, 10 gc → 10%.
    iostats.record_read(IOCategory.APPLICATION, 90)
    iostats.record_read(IOCategory.COLLECTOR, 10)
    sampler.on_event(store, iostats)
    summary = sampler.summary(store, iostats)
    assert summary.gc_io_fraction == pytest.approx(0.10)
    assert summary.gc_io_fraction_total == pytest.approx(1010 / 2100)


def test_insignificant_run_flagged():
    sampler = Sampler(preamble_collections=10)
    store = ObjectStore(CFG)
    sampler.on_event(store, store.iostats)
    summary = sampler.summary(store, store.iostats)
    assert not summary.significant


def test_collection_records_capture_estimates():
    sampler = Sampler()
    store = ObjectStore(CFG)
    store.create(size=1000)
    sampler.on_phase("Reorg1")
    sampler.on_collection(
        _result(0),
        store,
        interval_next=123.0,
        estimated_garbage_bytes=250.0,
        target_garbage_fraction=0.10,
    )
    record = sampler.collection_records[0]
    assert record.phase == "Reorg1"
    assert record.interval_next == 123.0
    assert record.estimated_garbage_fraction == pytest.approx(0.25)
    assert record.target_garbage_fraction == 0.10
    assert record.yield_bytes == 100


def test_collection_record_without_estimator():
    sampler = Sampler()
    store = ObjectStore(CFG)
    store.create(size=1000)
    sampler.on_collection(_result(0), store, 1.0, None, None)
    assert sampler.collection_records[0].estimated_garbage_fraction is None


def test_phase_boundaries_recorded():
    sampler = Sampler()
    store = ObjectStore(CFG)
    sampler.on_phase("GenDB")
    sampler.on_event(store, store.iostats)
    sampler.on_event(store, store.iostats)
    sampler.on_phase("Reorg1")
    assert sampler.phase_boundaries == {"GenDB": 0, "Reorg1": 2}
