"""Declarative, picklable experiment specifications.

The parallel experiment engine (:mod:`repro.sim.engine`) fans simulation
runs out over worker *processes*, which cannot receive the closures the
factory-based :func:`repro.sim.runner.run_seeds` protocol is built around.
This module provides the declarative replacement: an :class:`ExperimentSpec`
names the rate policy, the workload, and the partition-selection policy by
**registry key plus keyword arguments**, and the spec is resolved into live
objects *inside* each worker, once per seed.

Because a spec is plain data (nested frozen dataclasses of strings, numbers
and config dataclasses) it is also *stably hashable*: :func:`spec_material`
renders a spec into a canonical JSON-compatible structure, which the
on-disk result cache (:mod:`repro.sim.cache`) digests into content
addresses.

The three registries are extensible — downstream code can register new
policies/workloads/selections under fresh keys with :func:`register_policy`,
:func:`register_workload` and :func:`register_selection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Union

from repro.canonical import CANONICAL_EXCLUDED_FIELDS, canonical_value
from repro.core.estimators import make_estimator
from repro.core.fixed import (
    AllocationRatePolicy,
    FixedRatePolicy,
    PartitionHeuristicPolicy,
)
from repro.core.rate_policy import RatePolicy
from repro.core.saga import SagaPolicy
from repro.core.saio import SaioPolicy
from repro.events import TraceEvent
from repro.faults.plan import FaultPlan
from repro.gc.selection import PartitionSelectionPolicy, make_selection_policy
from repro.oo7.config import OO7Config
from repro.sim.simulator import SimulationConfig
from repro.workload.application import Oo7Application
from repro.workload.grammar import GrammarWorkload, WorkloadConfig
from repro.workload.tenants import TenantMix, TenantMixConfig
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

# ----------------------------------------------------------------------
# Spec dataclasses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PolicySpec:
    """Names a collection-rate policy by registry key plus kwargs.

    Built-in kinds: ``fixed``, ``allocation``, ``partition-heuristic``,
    ``saio``, ``saga`` (whose ``estimator`` kwarg is itself a registry key
    resolved through :func:`repro.core.estimators.make_estimator`). Besides
    plain names (``fgs-hb``, ``cgs-cb``, ``oracle``…) the estimator kwarg
    accepts trained-model specs, ``learned:<path>[@<hash-prefix>]``: the
    spec string participates in :func:`canonical_material` like any other
    kwarg, so a content-pinned spec (``python -m repro train`` prints one)
    makes the experiment fingerprint track the model artifact's content.
    """

    kind: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkloadSpec:
    """Names a workload (seed → trace) by registry key plus kwargs.

    The built-in ``oo7`` kind takes ``config`` (an
    :class:`~repro.oo7.config.OO7Config`) plus the optional
    ``delete_fraction`` / ``doc_churn_fraction`` knobs of
    :class:`~repro.workload.application.Oo7Application`.
    """

    kind: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SelectionSpec:
    """Names a partition-selection policy by registry key plus kwargs.

    Built-in kinds mirror :func:`repro.gc.selection.make_selection_policy`:
    ``updated-pointer``, ``random``, ``round-robin``,
    ``most-garbage-oracle``. Seed-dependent policies (``random``) receive
    the run's seed at resolution time.
    """

    kind: str = "updated-pointer"
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experimental setting, as plain picklable data.

    Resolving a spec for a seed (:meth:`resolve`) builds a fresh policy,
    trace and selection policy — nothing stateful is ever shared between
    runs. ``label`` is display-only (progress lines) and deliberately
    excluded from the cache fingerprint.

    ``faults`` optionally attaches a deterministic failure schedule
    (:class:`~repro.faults.plan.FaultPlan`) to every run of the spec; it
    *is* part of the cache fingerprint, since injected faults change what
    the run produces.
    """

    policy: PolicySpec
    workload: WorkloadSpec
    selection: SelectionSpec = field(default_factory=SelectionSpec)
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    label: str = ""
    faults: Optional[FaultPlan] = None

    def resolve(
        self, seed: int
    ) -> tuple[RatePolicy, Iterable[TraceEvent], PartitionSelectionPolicy]:
        """Build the live (policy, trace, selection) triple for one seed."""
        return (
            build_policy(self.policy, seed),
            build_workload(self.workload, seed),
            build_selection(self.selection, seed),
        )


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------

#: A builder receives the run's seed first, then the spec's kwargs.
PolicyBuilder = Callable[..., RatePolicy]
WorkloadBuilder = Callable[..., Iterable[TraceEvent]]
SelectionBuilder = Callable[..., PartitionSelectionPolicy]

_POLICY_REGISTRY: dict[str, PolicyBuilder] = {}
_WORKLOAD_REGISTRY: dict[str, WorkloadBuilder] = {}
_SELECTION_REGISTRY: dict[str, SelectionBuilder] = {}


def register_policy(kind: str, builder: PolicyBuilder) -> None:
    """Register ``builder(seed, **kwargs)`` under a policy registry key."""
    _POLICY_REGISTRY[kind] = builder


def register_workload(kind: str, builder: WorkloadBuilder) -> None:
    """Register ``builder(seed, **kwargs)`` under a workload registry key."""
    _WORKLOAD_REGISTRY[kind] = builder


def register_selection(kind: str, builder: SelectionBuilder) -> None:
    """Register ``builder(seed, **kwargs)`` under a selection registry key."""
    _SELECTION_REGISTRY[kind] = builder


def _lookup(registry: dict, kind: str, what: str):
    try:
        return registry[kind]
    except KeyError:
        raise ValueError(
            f"unknown {what} kind {kind!r}; choose from {sorted(registry)}"
        ) from None


def build_policy(spec: PolicySpec, seed: int) -> RatePolicy:
    """Resolve a :class:`PolicySpec` into a fresh policy instance."""
    return _lookup(_POLICY_REGISTRY, spec.kind, "policy")(seed, **dict(spec.kwargs))


def build_workload(spec: WorkloadSpec, seed: int) -> Iterable[TraceEvent]:
    """Resolve a :class:`WorkloadSpec` into a fresh trace for one seed."""
    return _lookup(_WORKLOAD_REGISTRY, spec.kind, "workload")(
        seed, **dict(spec.kwargs)
    )


def build_selection(spec: SelectionSpec, seed: int) -> PartitionSelectionPolicy:
    """Resolve a :class:`SelectionSpec` into a fresh selection policy."""
    return _lookup(_SELECTION_REGISTRY, spec.kind, "selection")(
        seed, **dict(spec.kwargs)
    )


# ---------------------------------------------------------------- built-ins


def _build_fixed(seed: int, overwrites_per_collection: float) -> RatePolicy:
    return FixedRatePolicy(overwrites_per_collection)


def _build_allocation(seed: int, bytes_per_collection: float) -> RatePolicy:
    return AllocationRatePolicy(bytes_per_collection)


def _build_partition_heuristic(seed: int, **kwargs) -> RatePolicy:
    return PartitionHeuristicPolicy(**kwargs)


def _build_saio(seed: int, **kwargs) -> RatePolicy:
    return SaioPolicy(**kwargs)


def _build_saga(
    seed: int,
    garbage_fraction: float,
    estimator: str = "fgs-hb",
    history: float = 0.8,
    **kwargs,
) -> RatePolicy:
    # ``estimator`` may be a registry name or a ``learned:`` model spec;
    # make_estimator loads (and hash-verifies) the artifact in the worker
    # process, so learned policies parallelise like any other.
    return SagaPolicy(
        garbage_fraction=garbage_fraction,
        estimator=make_estimator(estimator, history=history),
        **kwargs,
    )


register_policy("fixed", _build_fixed)
register_policy("allocation", _build_allocation)
register_policy("partition-heuristic", _build_partition_heuristic)
register_policy("saio", _build_saio)
register_policy("saga", _build_saga)


def _build_oo7(seed: int, config: OO7Config, **kwargs) -> Iterable[TraceEvent]:
    # The application itself, not ``.events()``: iterating it streams the
    # events, and ``compile_trace`` can take its ``emit_trace`` route.
    return Oo7Application(config, seed=seed, **kwargs)


register_workload("oo7", _build_oo7)


def _build_transactional(
    seed: int, spec: Optional[TransactionalSpec] = None, initial_clusters: int = 40
) -> Iterable[TraceEvent]:
    return TransactionalWorkload(
        spec or TransactionalSpec(), seed=seed, initial_clusters=initial_clusters
    ).events()


register_workload("transactional", _build_transactional)


def _build_grammar(
    seed: int, config: Union[WorkloadConfig, Mapping[str, Any]]
) -> Iterable[TraceEvent]:
    """``grammar``: a declarative :class:`~repro.workload.grammar.WorkloadConfig`.

    ``config`` may be the dataclass or its ``to_dict()`` form (so specs
    loaded from JSON files resolve without reconstruction). Both canonicalise
    to different material — pass the dataclass for fingerprint stability
    against configs built in code.
    """
    if not isinstance(config, WorkloadConfig):
        config = WorkloadConfig.from_dict(dict(config))
    # The workload itself, as for ``oo7``: ``compile_trace`` fills the
    # columns through its ``emit_trace``, everyone else iterates it.
    return GrammarWorkload(config, seed=seed)


register_workload("grammar", _build_grammar)


def _build_tenant_mix(
    seed: int, config: Union[TenantMixConfig, Mapping[str, Any]]
) -> Iterable[TraceEvent]:
    """``tenant-mix``: an interleaved multi-tenant scenario."""
    if not isinstance(config, TenantMixConfig):
        config = TenantMixConfig.from_dict(dict(config))
    return TenantMix(config, seed=seed)


register_workload("tenant-mix", _build_tenant_mix)


def _build_preset(
    seed: int, name: str, scale: float = 1.0, initial_clusters: int = 16
) -> Iterable[TraceEvent]:
    """``preset``: a named synthetic preset from :mod:`repro.workload.presets`."""
    from repro.workload.presets import PresetWorkload

    return PresetWorkload(
        name, scale=scale, seed=seed, initial_clusters=initial_clusters
    ).events()


register_workload("preset", _build_preset)


def _selection_builder(name: str) -> SelectionBuilder:
    def build(seed: int) -> PartitionSelectionPolicy:
        return make_selection_policy(name, seed=seed)

    return build


for _name in ("updated-pointer", "random", "round-robin", "most-garbage-oracle"):
    register_selection(_name, _selection_builder(_name))


# ----------------------------------------------------------------------
# Canonical material for content addressing
# ----------------------------------------------------------------------

# The canonicaliser lives in :mod:`repro.canonical` (it moved there so
# workload modules can use it without importing this module, which imports
# them). These aliases keep the long-standing local names working.
_CANONICAL_EXCLUDED_FIELDS = CANONICAL_EXCLUDED_FIELDS
_canonical = canonical_value


def spec_material(spec: ExperimentSpec, seed: Optional[int] = None) -> dict:
    """Canonical description of (spec, seed) for hashing.

    Excludes the display-only ``label`` so cosmetic relabelling never
    invalidates cached results.
    """
    material = {
        "policy": _canonical(spec.policy),
        "workload": _canonical(spec.workload),
        "selection": _canonical(spec.selection),
        "sim": _canonical(spec.sim),
    }
    # Included only when set, so fingerprints of fault-free specs are
    # unchanged by the existence of the faults feature.
    if spec.faults is not None:
        material["faults"] = _canonical(spec.faults)
    if seed is not None:
        material["seed"] = seed
    return material
