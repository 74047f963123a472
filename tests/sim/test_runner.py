"""Multi-seed runs through the engine, and their aggregation."""

import pytest

from repro.oo7.config import TINY
from repro.sim.engine import AggregateStat, run_experiment
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import ExperimentSpec, PolicySpec, WorkloadSpec
from repro.storage.heap import StoreConfig

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)
CONFIG = SimulationConfig(store=TINY_STORE, preamble_collections=0)
FIXED = PolicySpec("fixed", {"overwrites_per_collection": 50})


def _spec(policy=FIXED):
    return ExperimentSpec(
        policy=policy, workload=WorkloadSpec("oo7", {"config": TINY}), sim=CONFIG
    )


def test_aggregate_stat_of_values():
    stat = AggregateStat.of([1.0, 2.0, 6.0])
    assert stat.mean == pytest.approx(3.0)
    assert stat.minimum == 1.0
    assert stat.maximum == 6.0
    assert stat.spread == 5.0


def test_aggregate_stat_empty():
    stat = AggregateStat.of([])
    assert (stat.mean, stat.minimum, stat.maximum) == (0.0, 0.0, 0.0)


def test_run_seeds_requires_seeds():
    with pytest.raises(ValueError):
        run_experiment(_spec(), seeds=[], jobs=1)


def test_run_seeds_aggregates_each_seed():
    aggregate = run_experiment(_spec(), seeds=[0, 1, 2], jobs=1)
    assert aggregate.runs == 3
    assert aggregate.collections.mean > 0
    stat = aggregate.garbage_fraction
    assert stat.minimum <= stat.mean <= stat.maximum


def test_identical_seeds_give_identical_summaries():
    """Determinism across full simulation runs."""
    spec = _spec(PolicySpec("saio", {"io_fraction": 0.2, "initial_interval": 50}))
    first = run_experiment(spec, seeds=[7], jobs=1)
    second = run_experiment(spec, seeds=[7], jobs=1)
    assert first.summaries == second.summaries


def test_different_seeds_vary():
    aggregate = run_experiment(_spec(), seeds=[0, 1, 2, 3], jobs=1)
    fractions = [s.garbage_fraction_mean for s in aggregate.summaries]
    assert len(set(fractions)) > 1
