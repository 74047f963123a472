"""Integration matrix: every rate policy × every selection policy runs clean.

A cheap but broad safety net: any combination must complete a full OO7 run
with consistent garbage accounting and a valid store — no combination is
allowed to deadlock, thrash to the max_collections guard, or corrupt state.
"""

import pytest

from repro.core.estimators import FgsHbEstimator, OracleEstimator
from repro.core.extensions import CoupledSaioSagaPolicy
from repro.core.fixed import AllocationRatePolicy, FixedRatePolicy
from repro.core.saga import SagaPolicy
from repro.core.saio import UNLIMITED_HISTORY, SaioPolicy
from repro.gc.selection import (
    MostGarbageOracleSelection,
    RandomSelection,
    RoundRobinSelection,
    UpdatedPointerSelection,
)
from repro.oo7.config import TINY
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage.heap import StoreConfig
from repro.storage.validation import validate_store
from repro.workload.application import Oo7Application

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)

POLICIES = {
    "fixed": lambda: FixedRatePolicy(20),
    "allocation": lambda: AllocationRatePolicy(16 * 1024),
    "saio": lambda: SaioPolicy(io_fraction=0.15, initial_interval=60),
    "saio-hist": lambda: SaioPolicy(
        io_fraction=0.15, c_hist=UNLIMITED_HISTORY, initial_interval=60
    ),
    "saga-oracle": lambda: SagaPolicy(
        garbage_fraction=0.15, estimator=OracleEstimator(), initial_interval=25
    ),
    "saga-fgshb": lambda: SagaPolicy(
        garbage_fraction=0.15, estimator=FgsHbEstimator(0.8), initial_interval=25
    ),
    "coupled": lambda: CoupledSaioSagaPolicy(
        io_fraction=0.15,
        garbage_fraction=0.15,
        estimator=FgsHbEstimator(0.8),
        initial_interval=60,
    ),
}

SELECTIONS = {
    "updated-pointer": lambda: UpdatedPointerSelection(),
    "random": lambda: RandomSelection(seed=3),
    "round-robin": lambda: RoundRobinSelection(),
    "most-garbage": lambda: MostGarbageOracleSelection(),
}


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("selection_name", sorted(SELECTIONS))
def test_combination_runs_clean(policy_name, selection_name):
    sim = Simulation(
        policy=POLICIES[policy_name](),
        selection=SELECTIONS[selection_name](),
        config=SimulationConfig(store=TINY_STORE, preamble_collections=0),
    )
    result = sim.run(Oo7Application(TINY, seed=0).events())
    store = result.store

    assert result.summary.events > 0
    assert store.garbage.undeclared == 0
    assert store.check_death_annotations() == set()
    assert validate_store(store, strict=False).ok
    # Live application state is intact regardless of the combination.
    live = sum(1 for o in store.placements.rows() if not o.dead)
    assert live == TINY.expected_object_count
