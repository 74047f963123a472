"""The unified workload protocol: every workload speaks one surface.

Historically each workload class had its own construction idiom —
:class:`~repro.workload.application.Oo7Application` was a dataclass,
:class:`~repro.workload.synthetic.SyntheticWorkload` took a phase list,
presets returned bare phase lists — and only workloads named by registry
key could be fingerprinted for the trace cache. The :class:`WorkloadSpec`
protocol collapses that: a workload is anything that exposes

* ``seed`` — the seed all of its randomised behaviour derives from,
* ``events()`` — the trace, a one-shot iterator of
  :class:`~repro.events.TraceEvent` values, and
* ``canonical_material()`` — a plain-data description of *what the
  workload is* (not how it is implemented), digestible by
  :func:`repro.canonical.canonical_value`.

A workload may also offer a *step form*, ``steps(out)``: the same trace
emitted into a :class:`~repro.events.TraceSink`, without event objects,
by a generator that yields where it may be suspended.
:func:`~repro.workload.compiled.compile_trace` drains it when present, and
:meth:`~repro.workload.trace_cache.TraceCache.resolve` cuts it into chunks
that a run replays while the rest is still being generated.

:func:`repro.workload.trace_cache.trace_fingerprint` and
:class:`~repro.workload.trace_cache.TraceCache` consume exactly this
surface, so any conforming workload — OO7, synthetic, transactional,
grammar-driven, multi-tenant — caches and replays identically through the
engine.

Naming note: :class:`repro.sim.spec.WorkloadSpec` is the *declarative*
counterpart — it names a workload by registry key plus kwargs so the spec
can travel to worker processes as plain data. The protocol here describes
the *instantiated* workload objects those registry builders construct.
The two forms canonicalise differently (a registry spec digests its kind +
kwargs, an instance digests its ``canonical_material()``), so they address
separate cache entries; within either form, equal description + equal seed
⇒ equal fingerprint.
"""

from __future__ import annotations

from typing import Any, Iterator, Protocol, runtime_checkable

from repro.events import TraceEvent


@runtime_checkable
class WorkloadSpec(Protocol):
    """Anything that generates a deterministic, fingerprintable trace.

    ``events()`` is a one-shot generator by convention: most workloads
    mutate internal bookkeeping (cluster registries, OO7 graphs) while
    generating, so a second call on the same instance is undefined.
    Construct a fresh instance — same constructor arguments, same seed,
    byte-identical trace — to replay.

    Optional, and therefore not a member of the protocol — the only optional
    method: ``steps(out: TraceSink) -> Iterator[None]`` emits the trace
    ``events()`` would yield — the same events in the same order, equally
    one-shot — as calls on ``out``, yielding wherever the generator may be
    suspended (after every event, or less often).
    ``events()`` is then ``stream_events(self.steps)``.
    :func:`~repro.workload.compiled.compile_trace` looks for it with
    ``getattr`` and drains it into the trace columns instead of iterating
    ``events()``; the trace cache cuts it into chunks as it runs, which is
    also why the instance must pickle for the chunks to be cut in a helper
    interpreter (one that does not is cut inline).
    :class:`~repro.workload.application.Oo7Application`,
    :class:`~repro.workload.grammar.GrammarWorkload` and
    :class:`~repro.workload.tenants.TenantMix` offer it; the synthetic and
    transactional workloads do not.
    """

    #: Seed every randomised choice derives from; two instances constructed
    #: with equal canonical material and equal seeds generate equal traces.
    seed: int

    def events(self) -> Iterator[TraceEvent]:
        """Generate the trace (one-shot)."""
        ...

    def canonical_material(self) -> dict[str, Any]:
        """Plain-data description of the workload, for content addressing.

        The returned structure must be digestible by
        :func:`repro.canonical.canonical_value` (nested dataclasses, enums,
        mappings, sequences and scalars) and must determine the generated
        trace together with ``seed``: equal material + equal seed ⇒ equal
        trace.
        """
        ...
