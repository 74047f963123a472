"""repro — reproduction of Cook, Klauser, Zorn & Wolf (SIGMOD 1996).

*Semi-automatic, Self-adaptive Control of Garbage Collection Rates in Object
Databases.*

The package provides:

* an object-database storage simulator (partitioned heap, LRU buffer pool,
  partitioned copying garbage collector, OO7 benchmark workloads), and
* the paper's contribution: the **SAIO** and **SAGA** self-adaptive
  collection-rate policies with their garbage-estimation heuristics.

Quickstart::

    from repro import Oo7Application, SaioPolicy, Simulation, SMALL_PRIME

    app = Oo7Application(SMALL_PRIME, seed=1)
    sim = Simulation(policy=SaioPolicy(io_fraction=0.10))
    result = sim.run(app)
    print(result.summary.gc_io_fraction)  # ≈ 0.10
"""

from repro.core.estimators import (
    DecayingOracleBlend,
    FgsHbEstimator,
    OracleEstimator,
    make_estimator,
)
from repro.core.extensions import CoupledSaioSagaPolicy, OpportunisticPolicy
from repro.core.fixed import FixedRatePolicy, PartitionHeuristicPolicy
from repro.core.saga import SagaPolicy
from repro.core.saio import SaioPolicy
from repro.oo7.config import SMALL_PRIME, TINY
from repro.sim.engine import run_experiment
from repro.sim.simulator import Simulation, SimulationConfig
from repro.sim.spec import ExperimentSpec, PolicySpec, WorkloadSpec
from repro.storage.heap import StoreConfig
from repro.workload.application import Oo7Application
from repro.workload.synthetic import SyntheticPhase, SyntheticWorkload
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

__version__ = "1.0.0"

__all__ = [
    "CoupledSaioSagaPolicy",
    "DecayingOracleBlend",
    "ExperimentSpec",
    "FgsHbEstimator",
    "FixedRatePolicy",
    "Oo7Application",
    "OpportunisticPolicy",
    "OracleEstimator",
    "PartitionHeuristicPolicy",
    "PolicySpec",
    "SMALL_PRIME",
    "SagaPolicy",
    "SaioPolicy",
    "Simulation",
    "SimulationConfig",
    "StoreConfig",
    "SyntheticPhase",
    "SyntheticWorkload",
    "TINY",
    "TransactionalSpec",
    "TransactionalWorkload",
    "WorkloadSpec",
    "make_estimator",
    "run_experiment",
]
