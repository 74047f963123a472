"""Trace-driven simulation: engine, metrics, multi-seed runs, reports.

The paper's multi-seed protocol runs through :func:`run_experiment` /
:func:`run_experiment_batch`: declarative :class:`ExperimentSpec` values,
with multi-process fan-out (:class:`ParallelRunner`) and on-disk
memoisation (:class:`ResultCache`).
"""

from repro.sim.cache import CachedRun, ResultCache, spec_fingerprint
from repro.sim.clustering import (
    SpreadStats,
    composite_spread,
    traverse_hit_rate,
    traverse_page_footprint,
)
from repro.sim.engine import (
    AggregateResult,
    AggregateStat,
    ParallelRunner,
    RunFailure,
    RunStats,
    RunTimeoutError,
    SeedOutcome,
    run_experiment,
    run_experiment_batch,
)
from repro.sim.metrics import (
    CollectionRecord,
    EventSample,
    RunningMean,
    Sampler,
    SimulationSummary,
)
from repro.sim.simulator import Simulation, SimulationConfig, SimulationResult
from repro.sim.spec import (
    ExperimentSpec,
    PolicySpec,
    SelectionSpec,
    WorkloadSpec,
    register_policy,
    register_selection,
    register_workload,
)

__all__ = [
    "AggregateResult",
    "SpreadStats",
    "composite_spread",
    "traverse_hit_rate",
    "traverse_page_footprint",
    "AggregateStat",
    "CachedRun",
    "CollectionRecord",
    "EventSample",
    "ExperimentSpec",
    "ParallelRunner",
    "PolicySpec",
    "ResultCache",
    "RunFailure",
    "RunStats",
    "RunTimeoutError",
    "RunningMean",
    "Sampler",
    "SeedOutcome",
    "SelectionSpec",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "SimulationSummary",
    "WorkloadSpec",
    "register_policy",
    "register_selection",
    "register_workload",
    "run_experiment",
    "run_experiment_batch",
    "spec_fingerprint",
]
