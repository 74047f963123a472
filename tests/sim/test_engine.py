"""Tests for the parallel experiment engine.

The acceptance bar: jobs=1 and jobs>1 produce identical results (down to
the formatted report), and a warm cache answers a repeat invocation with
zero simulation runs.
"""

import pytest

from repro.oo7.config import TINY
from repro.sim.engine import RunOptions, run_experiment, run_experiment_batch
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


# ---------------------------------------------------------------- basics


def test_requires_seeds():
    with pytest.raises(ValueError):
        run_experiment(tiny_spec(), seeds=[], jobs=1)


def test_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        RunOptions(jobs=0)


def test_empty_batch():
    assert run_experiment_batch([], seeds=[0], jobs=1) == []


def test_aggregates_each_seed():
    aggregate = run_experiment(tiny_spec(), seeds=[0, 1, 2], jobs=1)
    assert aggregate.runs == 3
    assert aggregate.stats.runs == 3
    assert aggregate.stats.cache_misses == 3
    assert aggregate.stats.wall_time > 0


def test_keep_records():
    aggregate = run_experiment(tiny_spec(), seeds=[0, 1], jobs=1, keep_records=True)
    assert len(aggregate.records) == 2
    assert all(len(records) > 0 for records in aggregate.records)
    assert aggregate.records[0][0].reclaimed_bytes >= 0


def test_matches_a_plain_simulation_per_seed():
    """The engine runs the exact simulations a hand-written loop would:
    a fresh policy and workload per seed, replayed by ``Simulation.run``."""
    from repro.core.fixed import FixedRatePolicy
    from repro.sim.simulator import Simulation
    from repro.workload.application import Oo7Application

    by_hand = [
        Simulation(policy=FixedRatePolicy(50), config=SIM)
        .run(Oo7Application(TINY, seed=seed))
        .summary
        for seed in (0, 1)
    ]
    engine = run_experiment(tiny_spec(), seeds=[0, 1], jobs=1)
    assert engine.summaries == by_hand


# ---------------------------------------------------------------- determinism


def test_parallel_matches_serial():
    """jobs=1 and jobs=4 must produce identical summaries (byte-identical
    formatted output follows)."""
    specs = [tiny_spec(rate) for rate in (40, 50, 60)]
    serial = run_experiment_batch(specs, seeds=[0, 1], jobs=1)
    parallel = run_experiment_batch(specs, seeds=[0, 1], jobs=4)
    assert [a.summaries for a in serial] == [a.summaries for a in parallel]


def test_parallel_matches_serial_with_records():
    serial = run_experiment(tiny_spec(), seeds=[0, 1, 2], jobs=1, keep_records=True)
    parallel = run_experiment(tiny_spec(), seeds=[0, 1, 2], jobs=3, keep_records=True)
    assert serial.summaries == parallel.summaries
    assert serial.records == parallel.records


# ---------------------------------------------------------------- caching


def test_second_run_is_all_cache_hits(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = run_experiment(tiny_spec(), seeds=[0, 1], jobs=1, cache=cache_dir)
    assert (cold.stats.cache_hits, cold.stats.cache_misses) == (0, 2)
    warm = run_experiment(tiny_spec(), seeds=[0, 1], jobs=1, cache=cache_dir)
    assert (warm.stats.cache_hits, warm.stats.cache_misses) == (2, 0)
    assert warm.summaries == cold.summaries


def test_cache_invalidates_on_spec_change(tmp_path):
    cache_dir = tmp_path / "cache"
    run_experiment(tiny_spec(rate=50), seeds=[0], jobs=1, cache=cache_dir)
    changed = run_experiment(tiny_spec(rate=60), seeds=[0], jobs=1, cache=cache_dir)
    assert changed.stats.cache_misses == 1


def test_cached_records_round_trip(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = run_experiment(
        tiny_spec(), seeds=[0], jobs=1, cache=cache_dir, keep_records=True
    )
    warm = run_experiment(
        tiny_spec(), seeds=[0], jobs=1, cache=cache_dir, keep_records=True
    )
    assert warm.stats.cache_hits == 1
    assert warm.records == cold.records


def test_summary_only_entry_upgraded_when_records_needed(tmp_path):
    cache_dir = tmp_path / "cache"
    run_experiment(tiny_spec(), seeds=[0], jobs=1, cache=cache_dir)
    upgraded = run_experiment(
        tiny_spec(), seeds=[0], jobs=1, cache=cache_dir, keep_records=True
    )
    assert upgraded.stats.cache_misses == 1  # re-ran to get records
    again = run_experiment(
        tiny_spec(), seeds=[0], jobs=1, cache=cache_dir, keep_records=True
    )
    assert again.stats.cache_hits == 1


# ---------------------------------------------------------------- progress


def test_progress_reports_every_run(tmp_path):
    outcomes = []
    run_experiment(
        tiny_spec(label="tiny"),
        seeds=[0, 1],
        jobs=1,
        cache=tmp_path / "cache",
        progress=outcomes.append,
    )
    assert [o.cached for o in outcomes] == [False, False]
    assert [o.completed for o in outcomes] == [1, 2]
    assert all(o.total == 2 and o.label == "tiny" for o in outcomes)
    assert all(o.wall_time > 0 for o in outcomes)

    outcomes.clear()
    run_experiment(
        tiny_spec(label="tiny"),
        seeds=[0, 1],
        jobs=1,
        cache=tmp_path / "cache",
        progress=outcomes.append,
    )
    assert [o.cached for o in outcomes] == [True, True]
    assert {o.seed for o in outcomes} == {0, 1}


def test_progress_label_falls_back_to_policy_kind():
    outcomes = []
    run_experiment(tiny_spec(), seeds=[0], jobs=1, progress=outcomes.append)
    assert outcomes[0].label == "fixed"
