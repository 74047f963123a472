"""Tests for the multi-seed runner and aggregation."""

import pytest

from repro.core.fixed import FixedRatePolicy
from repro.core.saio import SaioPolicy
from repro.oo7.config import TINY
from repro.sim.runner import AggregateStat, run_one, run_seeds
from repro.sim.simulator import SimulationConfig
from repro.storage.heap import StoreConfig
from repro.workload.application import Oo7Application

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)
CONFIG = SimulationConfig(store=TINY_STORE, preamble_collections=0)


def _trace(seed: int):
    return Oo7Application(TINY, seed=seed).events()


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
        run_seeds(lambda seed: FixedRatePolicy(50), _trace, seeds=[])


def test_run_seeds_aggregates_each_seed():
    aggregate = run_seeds(
        lambda seed: FixedRatePolicy(50),
        _trace,
        seeds=[0, 1, 2],
        config=CONFIG,
    )
    assert aggregate.runs == 3
    assert aggregate.collections.mean > 0
    stat = aggregate.garbage_fraction
    assert stat.minimum <= stat.mean <= stat.maximum


def test_run_seeds_results_dropped_by_default():
    aggregate = run_seeds(
        lambda seed: FixedRatePolicy(50), _trace, seeds=[0], config=CONFIG
    )
    assert aggregate.results == []


def test_run_seeds_keep_results():
    aggregate = run_seeds(
        lambda seed: FixedRatePolicy(50),
        _trace,
        seeds=[0],
        config=CONFIG,
        keep_results=True,
    )
    assert len(aggregate.results) == 1
    assert aggregate.results[0].summary.collections == aggregate.summaries[0].collections


def test_identical_seeds_give_identical_summaries():
    """Determinism across full simulation runs."""
    kwargs = dict(
        policy_factory=lambda seed: SaioPolicy(io_fraction=0.2, initial_interval=50),
        trace_factory=_trace,
        seeds=[7],
        config=CONFIG,
    )
    first = run_seeds(**kwargs)
    second = run_seeds(**kwargs)
    assert first.summaries == second.summaries


def test_different_seeds_vary():
    aggregate = run_seeds(
        lambda seed: FixedRatePolicy(50), _trace, seeds=[0, 1, 2, 3], config=CONFIG
    )
    fractions = [s.garbage_fraction_mean for s in aggregate.summaries]
    assert len(set(fractions)) > 1


def test_run_one_convenience():
    result = run_one(FixedRatePolicy(50), _trace(0), config=CONFIG)
    assert result.summary.collections > 0


# ---------------------------------------------------------------- factory protocol


def test_seed_aware_factory_receives_each_seed():
    received = []

    def factory(seed):
        received.append(seed)
        return FixedRatePolicy(50)

    run_seeds(factory, _trace, seeds=[3, 1, 4], config=CONFIG)
    assert received == [3, 1, 4]


def test_zero_arg_factory_fails_with_type_error():
    with pytest.raises(TypeError, match="policy factories take the seed"):
        run_seeds(lambda: FixedRatePolicy(50), _trace, seeds=[0], config=CONFIG)
