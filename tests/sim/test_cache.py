"""Tests for the content-addressed on-disk result cache."""

import json

import pytest

from repro.oo7.config import TINY
from repro.sim.cache import ResultCache, spec_fingerprint
from repro.sim.engine import run_experiment
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import ExperimentSpec, PolicySpec, WorkloadSpec
from repro.storage.heap import StoreConfig

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)
SIM = SimulationConfig(store=TINY_STORE, preamble_collections=0)


def tiny_spec(rate=50, label=""):
    return ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": rate}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=SIM,
        label=label,
    )


@pytest.fixture
def run():
    """One real simulation run (summary + records) to feed the cache."""
    aggregate = run_experiment(
        tiny_spec(), seeds=[0], jobs=1, keep_records=True
    )
    return aggregate.summaries[0], aggregate.records[0]


# ---------------------------------------------------------------- round-trip


def test_round_trip_summary(tmp_path, run):
    summary, _records = run
    cache = ResultCache(tmp_path)
    key = spec_fingerprint(tiny_spec(), seed=0)
    assert cache.get(key) is None
    cache.put(key, summary)
    hit = cache.get(key)
    assert hit is not None
    assert hit.summary == summary
    assert hit.records is None
    assert key in cache
    assert len(cache) == 1


def test_round_trip_with_records(tmp_path, run):
    summary, records = run
    cache = ResultCache(tmp_path)
    key = spec_fingerprint(tiny_spec(), seed=0)
    cache.put(key, summary, records)
    hit = cache.get(key, want_records=True)
    assert hit is not None
    assert hit.records == records


def test_want_records_misses_summary_only_entries(tmp_path, run):
    summary, _records = run
    cache = ResultCache(tmp_path)
    key = spec_fingerprint(tiny_spec(), seed=0)
    cache.put(key, summary)
    assert cache.get(key, want_records=True) is None
    assert cache.get(key) is not None  # still hits without records


def test_corrupt_entry_is_discarded(tmp_path, run):
    summary, _records = run
    cache = ResultCache(tmp_path)
    key = spec_fingerprint(tiny_spec(), seed=0)
    cache.put(key, summary)
    cache._path(key).write_text("{ not json")
    assert cache.get(key) is None
    assert key not in cache  # dropped, not left to fail again


def test_incompatible_schema_is_discarded(tmp_path):
    cache = ResultCache(tmp_path)
    key = spec_fingerprint(tiny_spec(), seed=0)
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"summary": {"no_such_field": 1}}))
    assert cache.get(key) is None
    assert key not in cache


def test_clear(tmp_path, run):
    summary, _records = run
    cache = ResultCache(tmp_path)
    for seed in (0, 1, 2):
        cache.put(spec_fingerprint(tiny_spec(), seed=seed), summary)
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_no_temp_files_left_behind(tmp_path, run):
    summary, _records = run
    cache = ResultCache(tmp_path)
    cache.put(spec_fingerprint(tiny_spec(), seed=0), summary)
    leftovers = [p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".json"]
    assert leftovers == []


# ---------------------------------------------------------------- fingerprints


def test_fingerprint_stable_across_calls():
    assert spec_fingerprint(tiny_spec(), 0) == spec_fingerprint(tiny_spec(), 0)


def test_fingerprint_ignores_label():
    assert spec_fingerprint(tiny_spec(label="a"), 0) == spec_fingerprint(
        tiny_spec(label="b"), 0
    )


def test_fingerprint_golden_values():
    """Literal cache keys for one OO7 and one tenant-mix spec.

    A change that moves these orphans every result cache in the field:
    only a deliberate format/version bump may edit the literals. Adding
    or removing a result-neutral ``SimulationConfig`` knob must not.
    """
    from repro.workload.tenants import tenant_mix

    assert spec_fingerprint(tiny_spec(), 0) == (
        "4686fb726a3f468f77f296c199235a47b2f5c14be657411d886ec77a6be8df15"
    )
    mix = ExperimentSpec(
        policy=PolicySpec("saga", {"garbage_fraction": 0.1}),
        workload=WorkloadSpec(
            "tenant-mix",
            {"config": tenant_mix(["oltp-churn", "read-browse"], scale=0.2)},
        ),
        sim=SIM,
    )
    assert spec_fingerprint(mix, 3) == (
        "ede13fde5da6f3000c6179daf3e706c09a345319340fb0ea4fceb482bc1efe0f"
    )


def test_fingerprint_invalidates_on_any_input_change(run):
    base = spec_fingerprint(tiny_spec(), 0)
    assert spec_fingerprint(tiny_spec(), 1) != base  # seed
    assert spec_fingerprint(tiny_spec(rate=51), 0) != base  # policy kwargs
    other_sim = ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": 50}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=SimulationConfig(store=TINY_STORE, preamble_collections=1),
    )
    assert spec_fingerprint(other_sim, 0) != base  # simulation config
