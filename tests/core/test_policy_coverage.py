"""Focused tests for policy paths not covered elsewhere."""

import pytest

from repro.core.estimators import DecayingOracleBlend, FgsHbEstimator, OracleEstimator
from repro.core.rate_policy import TimeBase, Trigger
from repro.core.saga import SagaPolicy
from repro.core.saio import SaioPolicy
from repro.oo7.config import TINY
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage.heap import StoreConfig
from repro.workload.application import Oo7Application

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


def _config(**kwargs) -> SimulationConfig:
    defaults = dict(store=TINY_STORE, preamble_collections=0)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def test_trigger_requires_positive_interval():
    with pytest.raises(ValueError):
        Trigger(TimeBase.OVERWRITES, 0.0)
    with pytest.raises(ValueError):
        Trigger(TimeBase.APP_IO, -5.0)


def test_saga_records_decision_trail():
    policy = SagaPolicy(
        garbage_fraction=0.15, estimator=OracleEstimator(), initial_interval=20
    )
    sim = Simulation(policy=policy, config=_config())
    result = sim.run(Oo7Application(TINY, seed=0).events())
    # The trail is the sampler's collection records; the policy keeps none.
    assert len(result.collections) == result.summary.collections > 0
    for record in result.collections:
        assert record.overwrite_clock >= 0
        assert record.estimated_garbage_fraction >= 0.0
        assert record.interval_next > 0.0


def test_saga_with_decaying_oracle_blend_in_simulation():
    """The §3.2 preamble trick runs end-to-end: early estimates lean on the
    oracle, then hand over to the practical estimator."""
    blend = DecayingOracleBlend(FgsHbEstimator(history=0.8), decay=0.5)
    policy = SagaPolicy(garbage_fraction=0.15, estimator=blend, initial_interval=20)
    sim = Simulation(policy=policy, config=_config())
    result = sim.run(Oo7Application(TINY, seed=0).events())
    assert result.summary.collections > 0
    # After k collections the oracle weight has decayed to 0.5^k.
    assert blend.oracle_weight == pytest.approx(
        0.5 ** result.summary.collections
    )


def test_saio_min_interval_enforced_in_compute():
    policy = SaioPolicy(io_fraction=0.5, c_hist=0, min_interval=25.0)
    from repro.storage.iostats import IOStats

    # Raw solution: 10 · (0.5/0.5) = 10 < min_interval.
    assert policy.compute_interval(10, IOStats()) == 25.0


def test_saio_initial_interval_validation():
    with pytest.raises(ValueError):
        SaioPolicy(io_fraction=0.1, initial_interval=0)
    with pytest.raises(ValueError):
        SaioPolicy(io_fraction=0.1, min_interval=0)


def test_saga_initial_interval_validation():
    with pytest.raises(ValueError):
        SagaPolicy(
            garbage_fraction=0.1, estimator=OracleEstimator(), initial_interval=0
        )


def test_policies_report_describe_through_simulation():
    """describe() strings survive into error messages and reports."""
    policy = SaioPolicy(io_fraction=0.10)
    assert "saio" in policy.describe()
    saga = SagaPolicy(garbage_fraction=0.10, estimator=OracleEstimator())
    description = saga.describe()
    assert "saga" in description and "oracle" in description


def test_saga_weight_property_reflects_slope_estimator():
    policy = SagaPolicy(
        garbage_fraction=0.1, estimator=OracleEstimator(), weight=0.42
    )
    assert policy.weight == pytest.approx(0.42)


def test_allocation_base_scheduling_in_simulation():
    """ALLOCATED time base schedules against bytes allocated."""
    from repro.core.fixed import AllocationRatePolicy
    from repro.events import CreateEvent, RootEvent

    def trace():
        yield CreateEvent(1, 64)
        yield RootEvent(1)
        for index in range(40):
            yield CreateEvent(2 + index, 512)

    sim = Simulation(policy=AllocationRatePolicy(4096), config=_config())
    result = sim.run(trace())
    # 40 × 512 = 20480 bytes at 4096 per collection → about 5 collections.
    assert 3 <= result.summary.collections <= 6
