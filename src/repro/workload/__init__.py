"""Workloads: trace events, the OO7 test application, synthetic generators,
the declarative workload grammar and multi-tenant traffic mixes.

Every workload class here conforms to the unified
:class:`~repro.workload.base.WorkloadSpec` protocol — one ``seed`` /
``steps(out)`` / ``events()`` / ``canonical_material()`` surface consumed by
:func:`~repro.workload.trace_cache.trace_fingerprint`, the trace cache and
the experiment engine.
"""

from repro.events import (
    AbortTransactionEvent,
    AccessEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    IdleEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
    RootEvent,
    TraceEvent,
    TraceStats,
    UpdateEvent,
    trace_stats,
)
from repro.workload.application import Oo7Application
from repro.workload.base import WorkloadSpec
from repro.workload.compiled import (
    TRACE_FORMAT_VERSION,
    CompiledTrace,
    CompiledTraceError,
    compile_trace,
)
from repro.workload.grammar import (
    DISTRIBUTIONS,
    GRAMMAR_FORMAT_VERSION,
    OPERATIONS,
    TICKS_PER_SECOND,
    Choice,
    Distribution,
    Fixed,
    GrammarError,
    GrammarWorkload,
    OpMix,
    PhaseBlock,
    Uniform,
    WorkloadConfig,
    distribution_from_dict,
    distribution_to_dict,
)
from repro.workload.phases import (
    PHASE_GENDB,
    PHASE_ORDER,
    PHASE_REORG1,
    PHASE_REORG2,
    PHASE_TRAVERSE,
)
from repro.workload.presets import (
    PRESETS,
    PresetWorkload,
    bulk_load_then_serve,
    daily_cycle,
    garbage_burst,
    make_preset,
    steady_churn,
)
from repro.workload.synthetic import SyntheticPhase, SyntheticWorkload
from repro.workload.tenants import (
    TENANT_PROFILES,
    TENANT_SEED_STRIDE,
    TenantMix,
    TenantMixConfig,
    TenantSpec,
    make_profile,
    tenant_mix,
    tenant_seed,
)
from repro.workload.trace_cache import TraceCache, TraceCacheStats, trace_fingerprint
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

__all__ = [
    "AbortTransactionEvent",
    "AccessEvent",
    "BeginTransactionEvent",
    "Choice",
    "CommitTransactionEvent",
    "CompiledTrace",
    "CompiledTraceError",
    "CreateEvent",
    "DISTRIBUTIONS",
    "Distribution",
    "Fixed",
    "GRAMMAR_FORMAT_VERSION",
    "GrammarError",
    "GrammarWorkload",
    "IdleEvent",
    "OPERATIONS",
    "Oo7Application",
    "OpMix",
    "PHASE_GENDB",
    "PHASE_ORDER",
    "PHASE_REORG1",
    "PHASE_REORG2",
    "PHASE_TRAVERSE",
    "PRESETS",
    "PhaseBlock",
    "PhaseMarkerEvent",
    "PointerWriteEvent",
    "PresetWorkload",
    "RootEvent",
    "SyntheticPhase",
    "SyntheticWorkload",
    "TENANT_PROFILES",
    "TENANT_SEED_STRIDE",
    "TICKS_PER_SECOND",
    "TRACE_FORMAT_VERSION",
    "TenantMix",
    "TenantMixConfig",
    "TenantSpec",
    "TraceCache",
    "TraceCacheStats",
    "TraceEvent",
    "TraceStats",
    "TransactionalSpec",
    "TransactionalWorkload",
    "Uniform",
    "UpdateEvent",
    "WorkloadConfig",
    "WorkloadSpec",
    "bulk_load_then_serve",
    "compile_trace",
    "daily_cycle",
    "distribution_from_dict",
    "distribution_to_dict",
    "garbage_burst",
    "make_preset",
    "make_profile",
    "steady_churn",
    "tenant_mix",
    "tenant_seed",
    "trace_fingerprint",
    "trace_stats",
]
