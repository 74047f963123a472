"""Workloads: trace events, the OO7 test application, synthetic generators,
the declarative workload grammar and multi-tenant traffic mixes.

Every workload class here conforms to the unified
:class:`~repro.workload.base.Workload` protocol — one ``seed`` /
``steps(out)`` / ``events()`` / ``canonical_material()`` surface consumed by
:func:`~repro.workload.trace_cache.trace_fingerprint`, the trace cache and
the experiment engine.
"""

from repro.workload.application import Oo7Application
from repro.workload.base import Workload
from repro.workload.compiled import CompiledTrace, compile_trace
from repro.workload.grammar import GrammarWorkload
from repro.workload.synthetic import SyntheticWorkload
from repro.workload.tenants import TenantMix, TenantMixConfig, tenant_mix
from repro.workload.transactional import TransactionalWorkload

__all__ = [
    "CompiledTrace",
    "GrammarWorkload",
    "Oo7Application",
    "SyntheticWorkload",
    "TenantMix",
    "TenantMixConfig",
    "TransactionalWorkload",
    "Workload",
    "compile_trace",
    "tenant_mix",
]
