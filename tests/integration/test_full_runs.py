"""Integration tests: full trace-driven runs on the tiny OO7 database."""

import pytest

from stored import objects

from repro.core.estimators import FgsHbEstimator, OracleEstimator
from repro.core.fixed import FixedRatePolicy
from repro.core.saga import SagaPolicy
from repro.core.saio import SaioPolicy
from repro.gc.selection import RandomSelection, UpdatedPointerSelection
from repro.oo7.config import TINY
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage.heap import StoreConfig
from repro.workload.application import Oo7Application

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


def _run(policy, seed=0, selection=None, **config_kwargs):
    defaults = dict(store=TINY_STORE, preamble_collections=0)
    defaults.update(config_kwargs)
    sim = Simulation(
        policy=policy,
        selection=selection,
        config=SimulationConfig(**defaults),
    )
    return sim.run(Oo7Application(TINY, seed=seed).events())


def test_full_run_preserves_live_database():
    """After a GC-heavy run, the live OO7 structure is fully intact."""
    result = _run(FixedRatePolicy(10))
    store = result.store
    assert result.summary.collections > 10
    # All currently alive application objects are reachable; the only
    # resident unreachable objects are declared garbage awaiting collection.
    reachable = store.reachable_from_roots()
    for oid, obj in objects(store).items():
        assert obj.dead == (oid not in reachable)
    assert store.garbage.undeclared == 0


def test_full_run_live_object_population_is_stationary():
    result = _run(FixedRatePolicy(25))
    expected_live = TINY.expected_object_count
    live = sum(1 for o in result.store.placements.rows() if not o.dead)
    assert live == expected_live


def test_more_frequent_collection_leaves_less_garbage():
    frequent = _run(FixedRatePolicy(10)).summary
    sparse = _run(FixedRatePolicy(400)).summary
    assert frequent.final_garbage_fraction < sparse.final_garbage_fraction
    assert frequent.gc_io_total > sparse.gc_io_total


def test_more_frequent_collection_collects_more_garbage():
    """Figure 1b: total garbage collected falls as the rate coarsens."""
    frequent = _run(FixedRatePolicy(20)).summary
    sparse = _run(FixedRatePolicy(500)).summary
    assert frequent.total_reclaimed_bytes > sparse.total_reclaimed_bytes


def test_saio_achieves_requested_io_fraction():
    result = _run(SaioPolicy(io_fraction=0.15, initial_interval=100))
    achieved = result.summary.gc_io_fraction
    assert achieved == pytest.approx(0.15, abs=0.05)


def test_saga_oracle_achieves_requested_garbage_fraction():
    policy = SagaPolicy(garbage_fraction=0.15, estimator=OracleEstimator(), initial_interval=30)
    result = _run(policy, preamble_collections=5)
    achieved = result.summary.garbage_fraction_mean
    assert achieved == pytest.approx(0.15, abs=0.06)


def test_saga_oracle_tracks_target_on_steady_synthetic_workload():
    """On a steady-state workload the oracle-driven SAGA is near-exact
    (sawtooth offset aside) — Figure 5's 'difficult to distinguish from
    perfect accuracy'."""
    from repro.workload.synthetic import SyntheticPhase, SyntheticWorkload

    phase = SyntheticPhase(
        name="steady",
        operations=6000,
        create_weight=1,
        delete_weight=1,
        access_weight=2,
        cluster_size=6,
        object_size=120,
    )
    workload = SyntheticWorkload([phase], seed=0, initial_clusters=250)
    policy = SagaPolicy(garbage_fraction=0.15, estimator=OracleEstimator(), initial_interval=20)
    sim = Simulation(
        policy=policy,
        config=SimulationConfig(store=TINY_STORE, preamble_collections=10),
    )
    result = sim.run(workload.events())
    assert result.summary.garbage_fraction_mean == pytest.approx(0.15, abs=0.02)


@pytest.mark.slow
def test_saga_estimator_quality_ordering_on_oo7():
    """Figure 5's headline ordering on the paper's own workload:
    oracle ≈ target, FGS/HB close with a small systematic bump, CGS/CB far
    off and insensitive to the request."""
    from repro.core.estimators import CgsCbEstimator
    from repro.oo7.config import SMALL_PRIME

    target = 0.10

    def achieved(estimator):
        policy = SagaPolicy(garbage_fraction=target, estimator=estimator)
        sim = Simulation(policy=policy, config=SimulationConfig(preamble_collections=10))
        return sim.run(
            Oo7Application(SMALL_PRIME, seed=1).events()
        ).summary.garbage_fraction_mean

    oracle_error = abs(achieved(OracleEstimator()) - target)
    fgs_error = abs(achieved(FgsHbEstimator(history=0.8)) - target)
    cgs_error = abs(achieved(CgsCbEstimator()) - target)

    assert oracle_error < 0.02
    assert fgs_error < 0.10
    assert oracle_error <= fgs_error < cgs_error


def test_selection_policy_changes_behaviour():
    updated = _run(FixedRatePolicy(25), selection=UpdatedPointerSelection()).summary
    randomised = _run(FixedRatePolicy(25), selection=RandomSelection(seed=1)).summary
    # UPDATEDPOINTER hunts garbage-rich partitions → reclaims at least as much.
    assert updated.total_reclaimed_bytes >= randomised.total_reclaimed_bytes


def test_no_collections_during_traverse():
    """Overwrite-based time stands still through the read-only phase."""
    result = _run(FixedRatePolicy(25))
    boundaries = result.sampler.phase_boundaries
    traverse_start = boundaries["Traverse"]
    reorg2_start = boundaries["Reorg2"]
    in_traverse = [
        r
        for r in result.collections
        if traverse_start < r.event_index <= reorg2_start
    ]
    assert in_traverse == []


def test_determinism_full_pipeline():
    a = _run(SaioPolicy(io_fraction=0.2, initial_interval=60), seed=5)
    b = _run(SaioPolicy(io_fraction=0.2, initial_interval=60), seed=5)
    assert a.summary == b.summary
    assert [r.partition for r in a.collections] == [r.partition for r in b.collections]


def test_gc_io_charged_separately_from_app_io():
    result = _run(FixedRatePolicy(25))
    summary = result.summary
    assert summary.gc_io_total > 0
    assert summary.app_io_total > 0
    iostats = result.store.iostats
    assert iostats.application_total == summary.app_io_total
    assert iostats.collector_total == summary.gc_io_total
