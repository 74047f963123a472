"""repro — reproduction of Cook, Klauser, Zorn & Wolf (SIGMOD 1996).

*Semi-automatic, Self-adaptive Control of Garbage Collection Rates in Object
Databases.*

The package provides:

* an object-database storage simulator (partitioned heap, LRU buffer pool,
  partitioned copying garbage collector, OO7 benchmark workloads), and
* the paper's contribution: the **SAIO** and **SAGA** self-adaptive
  collection-rate policies with their garbage-estimation heuristics.

Quickstart::

    from repro import Oo7Application, SaioPolicy, Simulation, TINY

    app = Oo7Application(TINY, seed=1)
    sim = Simulation(policy=SaioPolicy(io_fraction=0.10))
    result = sim.run(app)
    print(result.summary.gc_io_fraction)  # ≈ 0.10
"""

from repro.core import (
    AllocationRatePolicy,
    CgsCbEstimator,
    CgsHbEstimator,
    CoupledSaioSagaPolicy,
    DecayingOracleBlend,
    FgsCbEstimator,
    FgsHbEstimator,
    FixedRatePolicy,
    GarbageEstimator,
    OpportunisticPolicy,
    OracleEstimator,
    PartitionHeuristicPolicy,
    RatePolicy,
    SagaPolicy,
    SaioPolicy,
    TimeBase,
    Trigger,
    make_estimator,
)
from repro.faults import (
    DrillReport,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SimulatedCrash,
    load_fault_plan,
    run_crash_recovery_drill,
)
from repro.gc import (
    CollectionResult,
    CopyingCollector,
    MostGarbageOracleSelection,
    PartitionSelectionPolicy,
    RandomSelection,
    RoundRobinSelection,
    UpdatedPointerSelection,
    make_selection_policy,
)
from repro.oo7 import SMALL, SMALL_PRIME, TINY, OO7Config, Oo7Graph, build_database
from repro.sim import (
    AggregateResult,
    AggregateStat,
    ExperimentSpec,
    ParallelRunner,
    PolicySpec,
    ResultCache,
    RunFailure,
    RunOptions,
    RunStats,
    RunTimeoutError,
    SelectionSpec,
    Simulation,
    SimulationConfig,
    SimulationResult,
    SimulationSummary,
    WorkloadSpec,
    run_experiment,
    run_experiment_batch,
)
from repro.storage import IOCategory, IOStats, ObjectKind, ObjectStore, StoreConfig
from repro.tx import Transaction, TransactionError, TransactionManager
# Note: ``repro.WorkloadSpec`` is the declarative registry-key spec from
# ``repro.sim.spec`` (imported above); the *protocol* of the same name lives
# at ``repro.workload.WorkloadSpec``.
from repro.workload import (
    CompiledTrace,
    GrammarWorkload,
    Oo7Application,
    PresetWorkload,
    SyntheticPhase,
    SyntheticWorkload,
    TenantMix,
    TenantMixConfig,
    TenantSpec,
    TraceCache,
    TransactionalSpec,
    TransactionalWorkload,
    WorkloadConfig,
    compile_trace,
    make_preset,
    make_profile,
    tenant_mix,
    trace_stats,
)

__version__ = "1.0.0"

__all__ = [
    "AggregateResult",
    "AllocationRatePolicy",
    "AggregateStat",
    "CgsCbEstimator",
    "CgsHbEstimator",
    "CollectionResult",
    "CompiledTrace",
    "CopyingCollector",
    "CoupledSaioSagaPolicy",
    "DecayingOracleBlend",
    "DrillReport",
    "ExperimentSpec",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FgsCbEstimator",
    "FgsHbEstimator",
    "FixedRatePolicy",
    "GarbageEstimator",
    "GrammarWorkload",
    "IOCategory",
    "IOStats",
    "MostGarbageOracleSelection",
    "ObjectKind",
    "ObjectStore",
    "OO7Config",
    "Oo7Application",
    "Oo7Graph",
    "OpportunisticPolicy",
    "OracleEstimator",
    "ParallelRunner",
    "PartitionHeuristicPolicy",
    "PartitionSelectionPolicy",
    "PolicySpec",
    "PresetWorkload",
    "RandomSelection",
    "RatePolicy",
    "ResultCache",
    "RoundRobinSelection",
    "RunFailure",
    "RunOptions",
    "RunStats",
    "RunTimeoutError",
    "SMALL",
    "SMALL_PRIME",
    "SagaPolicy",
    "SaioPolicy",
    "SelectionSpec",
    "SimulatedCrash",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "SimulationSummary",
    "StoreConfig",
    "SyntheticPhase",
    "SyntheticWorkload",
    "TINY",
    "TenantMix",
    "TenantMixConfig",
    "TenantSpec",
    "TimeBase",
    "TraceCache",
    "Transaction",
    "TransactionError",
    "TransactionManager",
    "TransactionalSpec",
    "TransactionalWorkload",
    "Trigger",
    "UpdatedPointerSelection",
    "WorkloadConfig",
    "WorkloadSpec",
    "build_database",
    "compile_trace",
    "load_fault_plan",
    "make_estimator",
    "make_preset",
    "make_profile",
    "make_selection_policy",
    "run_crash_recovery_drill",
    "run_experiment",
    "run_experiment_batch",
    "tenant_mix",
    "trace_stats",
]
