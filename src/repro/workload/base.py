"""The unified workload protocol: every workload speaks one surface.

Historically each workload class had its own construction idiom —
:class:`~repro.workload.application.Oo7Application` was a dataclass,
:class:`~repro.workload.synthetic.SyntheticWorkload` took a phase list,
presets returned bare phase lists — and only workloads named by registry
key could be fingerprinted for the trace cache. The :class:`Workload`
protocol collapses that: a workload is anything that exposes

* ``seed`` — the seed all of its randomised behaviour derives from,
* ``steps(out)`` — the trace, emitted into a
  :class:`~repro.events.TraceSink` by a generator that yields where it may
  be suspended,
* ``events()`` — the same trace as a one-shot iterator of
  :class:`~repro.events.TraceEvent` values, ``stream_events(self.steps)``,
  and
* ``canonical_material()`` — a plain-data description of *what the
  workload is* (not how it is implemented), digestible by
  :func:`repro.canonical.canonical_value`.

:func:`~repro.workload.compiled.compile_trace` drains ``steps`` into the
trace columns, and :meth:`~repro.workload.trace_cache.TraceCache.resolve`
cuts it into chunks that a run replays while the rest is still being
generated. ``events()`` serves the readers that want event objects: tests,
tools and the benchmark.

:func:`repro.workload.trace_cache.trace_fingerprint` and
:class:`~repro.workload.trace_cache.TraceCache` consume exactly this
surface, so any conforming workload — OO7, synthetic, transactional,
grammar-driven, multi-tenant — caches and replays identically through the
engine.

:class:`repro.sim.spec.WorkloadSpec` is the *declarative* counterpart —
it names a workload by registry key plus kwargs so the spec can travel to
worker processes as plain data. The protocol here describes the
*instantiated* workload objects those registry builders construct.
The two forms canonicalise differently (a registry spec digests its kind +
kwargs, an instance digests its ``canonical_material()``), so they address
separate cache entries; within either form, equal description + equal seed
⇒ equal fingerprint.
"""

from __future__ import annotations

from typing import Any, Iterator, Protocol, runtime_checkable

from repro.events import TraceEvent, TraceSink


@runtime_checkable
class Workload(Protocol):
    """Anything that generates a deterministic, fingerprintable trace.

    ``steps`` and ``events()`` are one-shot by convention: most workloads
    mutate internal bookkeeping (cluster registries, OO7 graphs) while
    generating, so a second call on the same instance is undefined.
    Construct a fresh instance — same constructor arguments, same seed,
    byte-identical trace — to replay.

    ``steps(out)`` emits the trace as calls on ``out`` and yields wherever
    the generator may be suspended (after every event, or less often); the
    trace cache cuts chunks at those points. The instance must pickle for
    the chunks to be cut in a helper interpreter (one that does not is cut
    inline). Every workload in :mod:`repro.workload` implements ``events()``
    as ``stream_events(self.steps)``.
    """

    #: Seed every randomised choice derives from; two instances constructed
    #: with equal canonical material and equal seeds generate equal traces.
    seed: int

    def steps(self, out: TraceSink) -> Iterator[None]:
        """Emit the trace into ``out``, yielding between events (one-shot)."""
        ...

    def events(self) -> Iterator[TraceEvent]:
        """The trace as event objects (one-shot)."""
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
