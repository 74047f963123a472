"""Multi-seed experiment runner.

The paper evaluates policies "based on multiple simulation runs that differ
only in the initial random number seed" (§3.2), reporting for each setting
the mean over 10 runs with error bars at the minimum and maximum of the
per-run means (§4.1). This module provides that protocol: build a fresh
workload and policy per seed, run the simulation, and aggregate.

Two entry points exist:

* :func:`run_seeds` — the in-process, factory-based primitive kept for
  programmatic callers that need arbitrary (non-picklable) factories;
* :func:`repro.sim.engine.run_experiment` — the declarative
  :class:`~repro.sim.spec.ExperimentSpec` entry point, which adds
  multi-process fan-out and on-disk result caching and is what the
  experiment drivers and the CLI use.

All three factory protocols are **seed-aware**: the factory is called with
the run's seed so seed-dependent construction (e.g. randomised selection
policies) stays reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.core.rate_policy import RatePolicy
from repro.gc.selection import PartitionSelectionPolicy, UpdatedPointerSelection
from repro.sim.metrics import CollectionRecord, SimulationSummary
from repro.sim.simulator import Simulation, SimulationConfig, SimulationResult
from repro.events import TraceEvent

#: Builds the trace for a given seed.
TraceFactory = Callable[[int], Iterable[TraceEvent]]
#: Builds a fresh policy instance for a given seed (policies are stateful;
#: never share them).
PolicyFactory = Callable[[int], RatePolicy]
#: Builds a fresh selection policy for a given seed.
SelectionFactory = Callable[[int], PartitionSelectionPolicy]


@dataclass(frozen=True)
class AggregateStat:
    """Mean / min / max of one metric across runs (the paper's error bars)."""

    mean: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "AggregateStat":
        if not values:
            return cls(0.0, 0.0, 0.0)
        return cls(
            mean=sum(values) / len(values),
            minimum=min(values),
            maximum=max(values),
        )

    @property
    def spread(self) -> float:
        return self.maximum - self.minimum


@dataclass
class RunStats:
    """Observability counters for one aggregated experimental setting."""

    #: Wall-clock seconds spent actually simulating (cache hits cost ~0).
    wall_time: float = 0.0
    #: Runs answered from the on-disk result cache.
    cache_hits: int = 0
    #: Runs that had to be simulated.
    cache_misses: int = 0
    #: Runs that failed even after retries (quarantined, not aggregated).
    failures: int = 0
    #: Extra attempts spent retrying runs that eventually succeeded or failed.
    retries: int = 0
    #: Telemetry files written for this setting's runs (engine-populated,
    #: present only when the engine ran with ``telemetry=``; cache hits
    #: skip simulation and therefore produce no file).
    telemetry_paths: list[str] = field(default_factory=list)

    @property
    def runs(self) -> int:
        """Runs that completed (from cache or simulation); excludes failures."""
        return self.cache_hits + self.cache_misses

    def merge(self, other: "RunStats") -> None:
        self.wall_time += other.wall_time
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.failures += other.failures
        self.retries += other.retries
        self.telemetry_paths.extend(other.telemetry_paths)


@dataclass(frozen=True)
class RunFailure:
    """One quarantined run: it failed every attempt and was excluded.

    The batch survives — the failure is recorded here (and counted in
    :attr:`RunStats.failures`) instead of killing the whole sweep.
    """

    label: str
    seed: int
    #: ``repr`` of the final exception.
    error: str
    #: Total attempts made (1 + retries).
    attempts: int


@dataclass
class AggregateResult:
    """Results of one experimental setting across all seeds."""

    summaries: list[SimulationSummary]
    #: Kept only when the caller asks for full results (memory!).
    results: list[SimulationResult] = field(default_factory=list)
    #: Per-seed collection records, kept only when the caller asks for them
    #: (``keep_records=True`` on the engine entry points).
    records: list[list[CollectionRecord]] = field(default_factory=list)
    #: Wall-time and cache accounting (populated by the engine).
    stats: Optional[RunStats] = None
    #: Runs that failed after exhausting retries (engine-populated). The
    #: aggregate statistics above are computed over successful runs only.
    failures: list[RunFailure] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.summaries)

    @property
    def telemetry_paths(self) -> list[str]:
        """Telemetry files written for this setting (empty when disabled)."""
        if self.stats is None:
            return []
        return self.stats.telemetry_paths

    @property
    def garbage_fraction(self) -> AggregateStat:
        return AggregateStat.of([s.garbage_fraction_mean for s in self.summaries])

    @property
    def gc_io_fraction(self) -> AggregateStat:
        return AggregateStat.of([s.gc_io_fraction for s in self.summaries])

    @property
    def collections(self) -> AggregateStat:
        return AggregateStat.of([float(s.collections) for s in self.summaries])

    @property
    def total_io(self) -> AggregateStat:
        return AggregateStat.of(
            [float(s.app_io_total + s.gc_io_total) for s in self.summaries]
        )

    @property
    def total_reclaimed(self) -> AggregateStat:
        return AggregateStat.of(
            [float(s.total_reclaimed_bytes) for s in self.summaries]
        )


def run_one(
    policy: RatePolicy,
    trace: Iterable[TraceEvent],
    selection: Optional[PartitionSelectionPolicy] = None,
    config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Run a single simulation (convenience wrapper)."""
    sim = Simulation(policy=policy, selection=selection, config=config)
    return sim.run(trace)


def run_seeds(
    policy_factory: PolicyFactory,
    trace_factory: TraceFactory,
    seeds: Sequence[int],
    selection_factory: Optional[SelectionFactory] = None,
    config: Optional[SimulationConfig] = None,
    keep_results: bool = False,
) -> AggregateResult:
    """Run one experimental setting across several seeds and aggregate.

    Args:
        policy_factory: Called with each seed for a fresh policy.
        trace_factory: Called with each seed for a fresh workload trace.
        seeds: The seeds (the paper uses 10 per data point).
        selection_factory: Partition selection per seed (default
            UPDATEDPOINTER).
        config: Simulation configuration shared by all runs.
        keep_results: Retain full per-run results (series, stores). Off by
            default to bound memory across large sweeps.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    aggregate = AggregateResult(summaries=[])
    for seed in seeds:
        selection = (
            selection_factory(seed) if selection_factory else UpdatedPointerSelection()
        )
        try:
            policy = policy_factory(seed)
        except TypeError as exc:
            raise TypeError(
                "policy factories take the seed (Callable[[int], RatePolicy])"
            ) from exc
        result = run_one(
            policy=policy,
            trace=trace_factory(seed),
            selection=selection,
            config=config,
        )
        aggregate.summaries.append(result.summary)
        if keep_results:
            aggregate.results.append(result)
    return aggregate
