"""Cache corruption quarantine and the record-downgrade regression."""

import json

from repro.oo7.config import TINY
from repro.sim.cache import ResultCache, spec_fingerprint
from repro.sim.engine import run_experiment
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import ExperimentSpec, PolicySpec, WorkloadSpec
from repro.storage.heap import StoreConfig

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)
SIM = SimulationConfig(store=TINY_STORE, preamble_collections=0)


def tiny_spec(rate=50):
    return ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": rate}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=SIM,
    )


def _warm(cache, keep_records=False):
    run_experiment(
        tiny_spec(), seeds=[0], jobs=1, cache=cache, keep_records=keep_records
    )
    return spec_fingerprint(tiny_spec(), 0)


# ------------------------------------------------------------- quarantine


def test_corrupt_entry_is_quarantined_not_deleted(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = _warm(cache)
    path = cache._path(key)
    path.write_text("{torn json")

    assert cache.get(key) is None  # degrades to a miss
    assert cache.quarantined == 1
    assert not path.exists()
    quarantine = cache.root / "quarantine"
    files = list(quarantine.iterdir())
    assert [f.name for f in files] == [f"{key}.json.corrupt"]
    assert files[0].read_text() == "{torn json"  # bytes preserved


def test_non_utf8_entry_is_quarantined_as_a_miss(tmp_path):
    """Bytes that do not decode are damage like a torn entry, not a crash."""
    cache = ResultCache(tmp_path / "cache")
    key = _warm(cache)
    cache._path(key).write_bytes(b"\xff\xfe\x00{")
    assert cache.get(key) is None
    assert cache.quarantined == 1
    assert [f.name for f in (cache.root / "quarantine").iterdir()] == [
        f"{key}.json.corrupt"
    ]


def test_quarantined_entries_invisible_to_len_and_clear(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = _warm(cache)
    assert len(cache) == 1
    cache._path(key).write_text("{torn")
    cache.get(key)
    assert len(cache) == 0
    assert cache.clear() == 0
    # The quarantined file survives clear().
    assert list((cache.root / "quarantine").iterdir())


def test_incompatible_schema_entry_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = _warm(cache)
    cache._path(key).write_text(json.dumps({"summary": {"bogus_field": 1}}))
    assert cache.get(key) is None
    assert cache.quarantined == 1


def test_quarantined_entry_recomputed_and_rewritten(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = _warm(cache)
    cache._path(key).write_text("{torn")
    result = run_experiment(tiny_spec(), seeds=[0], jobs=1, cache=cache)
    assert result.stats.cache_misses == 1  # corrupt entry was a miss
    assert cache.get(key) is not None  # healthy entry rewritten


# ------------------------------------- record downgrade regression (sat. 2)


def test_recordless_put_never_downgrades_entry_with_records(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = _warm(cache, keep_records=True)
    with_records = cache.get(key, want_records=True)
    assert with_records is not None and with_records.records

    # A later keep_records=False sweep writes the same key without records.
    run_experiment(tiny_spec(), seeds=[0], jobs=1, cache=cache)
    still = cache.get(key, want_records=True)
    assert still is not None and still.records  # records survived


def test_recordless_entry_upgraded_when_records_needed(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = _warm(cache, keep_records=False)
    assert cache.get(key, want_records=True) is None  # records missing

    # A keep_records=True run recomputes AND upgrades the entry in place.
    result = run_experiment(
        tiny_spec(), seeds=[0], jobs=1, cache=cache, keep_records=True
    )
    assert result.stats.cache_misses == 1
    upgraded = cache.get(key, want_records=True)
    assert upgraded is not None and upgraded.records

    # And the upgrade sticks for the next records-needing run.
    warm = run_experiment(
        tiny_spec(), seeds=[0], jobs=1, cache=cache, keep_records=True
    )
    assert warm.stats.cache_hits == 1


def test_direct_put_with_none_records_on_fresh_key_still_writes(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = _warm(cache)
    hit = cache.get(key)
    other_key = "f" * 64
    cache.put(other_key, hit.summary, None)
    assert cache.get(other_key) is not None
