"""Replayable event streams: the unbounded analogue of compiled traces.

A finite drill resumes after a crash with ``CompiledTrace.replay(start)``;
a service over an unbounded stream cannot materialise the trace, so it
resumes by *regenerating*: every stream here is a pure function of its
construction arguments, and resuming re-instantiates the generator and
skips to the requested absolute index. Determinism of the underlying
generators (grammar/tenant streaming modes are seeded and side-effect-free)
makes the skip exact — property-tested in ``tests/service``.

What travels from a stream to the service is a bounded **column chunk**
(:class:`~repro.workload.compiled.CompiledTrace`), not an event object: the
grammar and tenant generators emit straight into a
:class:`~repro.workload.compiled.TraceBuilder` that is cut every
:data:`CHUNK_EVENTS` events. The same generator body run into an
:class:`~repro.events.EventSink` is the stream's event form, which tests
and tools read; a source that only has events (a materialised list, a
wrapper around another stream) is compiled into chunks on the way in.

Determinism also makes a stream's chunks a pure function of (recipe,
start, chunk length), so where they are cut changes nothing in them. A
``steps`` stream whose recipe pickles — :func:`grammar_stream` and
:func:`tenant_stream` build theirs from ``functools.partial`` — is cut by
this process's helper interpreter on a second CPU, about one chunk ahead
of the service (:mod:`repro.service.stream_helper`); everything else
(``factory`` streams, lambda ``steps``, events-only wrappers, a one-CPU
host) is cut inline by the consumer. Both hosts run
:func:`_generated_chunks`, and a helper that dies mid-stream hands over to
it at the position reached. Every chunk route returns a
:class:`~repro.service.stream_helper.ChunkFeed`, which says which host
served it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Protocol, Sequence, runtime_checkable

from repro.events import TraceEvent, TraceSink, stream_events
from repro.service.stream_helper import Chunk, ChunkFeed
from repro.workload.compiled import CompiledTrace, TraceBuilder
from repro.workload.grammar import GrammarWorkload, WorkloadConfig
from repro.workload.tenants import TenantMix, TenantMixConfig

#: Events per column chunk. Chunks bound how far generation runs ahead of
#: the service and how large a chunk's string table can get; results never
#: depend on the value.
CHUNK_EVENTS = 4096


@runtime_checkable
class EventStream(Protocol):
    """Anything that can (re)start its event stream at an absolute index.

    A stream may also offer ``chunks_from(start_index)`` yielding
    :data:`Chunk` pairs; :func:`stream_chunks` compiles the events of one
    that does not.
    """

    #: Display label for reports and telemetry.
    label: str

    def events_from(self, start_index: int = 0) -> Iterator[TraceEvent]:
        """A fresh iterator positioned at absolute event ``start_index``."""
        ...


def _compiled_chunks(events: Iterator[TraceEvent]) -> Iterator[Chunk]:
    """Cut an event iterator into column chunks."""
    builder = TraceBuilder()
    add = builder.add
    while True:
        batch = list(itertools.islice(events, CHUNK_EVENTS))
        if not batch:
            return
        for event in batch:
            add(event)
        yield builder.finish(), 0


def _cut(
    steps: Callable[[TraceSink], Iterator[None]], chunk_events: int
) -> Iterator[CompiledTrace]:
    """Run a step generator into trace columns, cut every ``chunk_events``."""
    builder = TraceBuilder()
    for _ in steps(builder):
        if len(builder.ops) >= chunk_events:
            yield builder.finish()
    if builder.ops:
        yield builder.finish()


def _generated_chunks(
    steps: Callable[[TraceSink], Iterator[None]], chunk_events: int, start_index: int
) -> Iterator[Chunk]:
    """A step stream's chunks from ``start_index``: regenerate from zero,
    drop the chunks that end at or before it, enter the one that straddles
    it part-way. What a helper interpreter runs, and the inline host."""
    seen = 0
    for chunk in _cut(steps, chunk_events):
        end = seen + len(chunk)
        if end > start_index:
            yield chunk, max(0, start_index - seen)
        seen = end


def stream_chunks(stream: EventStream, start_index: int = 0) -> ChunkFeed:
    """The chunk route of any stream, from absolute event ``start_index``."""
    chunks_from = getattr(stream, "chunks_from", None)
    if chunks_from is None:
        return ChunkFeed(_compiled_chunks(stream.events_from(start_index)))
    chunks = chunks_from(start_index)
    return chunks if isinstance(chunks, ChunkFeed) else ChunkFeed(chunks)


@dataclass
class ReplayableStream:
    """An :class:`EventStream` over a generator factory.

    Give either ``factory``, a zero-argument callable returning a *new*
    event iterator, or ``steps``, a sink-emitting step generator
    (``steps(out)`` emits into ``out`` and yields between events). Either
    must reproduce the identical sequence on every call (seeded generators
    qualify; a one-shot iterator object does not).
    """

    factory: Optional[Callable[[], Iterator[TraceEvent]]] = None
    label: str = "stream"
    #: Plain-data description, for logs and soak reports.
    material: dict[str, Any] = field(default_factory=dict)
    steps: Optional[Callable[[TraceSink], Iterator[None]]] = None

    def __post_init__(self) -> None:
        if (self.factory is None) == (self.steps is None):
            raise ValueError("give exactly one of 'factory' and 'steps'")

    def events_from(self, start_index: int = 0) -> Iterator[TraceEvent]:
        if start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {start_index}")
        events = self.factory() if self.steps is None else stream_events(self.steps)
        if start_index:
            events = itertools.islice(events, start_index, None)
        return events

    def chunks_from(self, start_index: int = 0) -> ChunkFeed:
        """Column chunks covering the stream from ``start_index`` on.

        A ``steps`` stream is cut by :func:`_generated_chunks` — in this
        process's helper interpreter when ``steps`` pickles and a second CPU
        is there, inline otherwise; a ``factory`` stream compiles
        ``events_from``. The chunk length is :data:`CHUNK_EVENTS` as it
        reads now.
        """
        if start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {start_index}")
        if self.steps is None:
            return ChunkFeed(_compiled_chunks(self.events_from(start_index)))
        return ChunkFeed.cut(
            functools.partial(_generated_chunks, self.steps, CHUNK_EVENTS), start_index
        )


def _grammar_steps(
    config: WorkloadConfig, seed: int, max_live_clusters: int, out: TraceSink
) -> Iterator[None]:
    return GrammarWorkload(config, seed=seed).steps(out, max_live_clusters)


def _tenant_steps(
    config: TenantMixConfig, seed: int, max_live_clusters: int, out: TraceSink
) -> Iterator[None]:
    return TenantMix(config, seed=seed).steps(out, max_live_clusters)


def grammar_stream(
    config: WorkloadConfig, seed: int = 0, max_live_clusters: int = 512
) -> ReplayableStream:
    """Unbounded single-tenant stream over a grammar config."""
    return ReplayableStream(
        steps=functools.partial(_grammar_steps, config, seed, max_live_clusters),
        label=config.name,
        material={
            "kind": "grammar",
            "config": config.name,
            "seed": seed,
            "max_live_clusters": max_live_clusters,
        },
    )


def tenant_stream(
    config: TenantMixConfig, seed: int = 0, max_live_clusters: int = 512
) -> ReplayableStream:
    """Unbounded multi-tenant stream over a tenant-mix config."""
    return ReplayableStream(
        steps=functools.partial(_tenant_steps, config, seed, max_live_clusters),
        label=config.name,
        material={
            "kind": "tenant-mix",
            "config": config.name,
            "seed": seed,
            "max_live_clusters": max_live_clusters,
        },
    )


def finite_stream(
    events: Sequence[TraceEvent], label: str = "finite"
) -> ReplayableStream:
    """A finite, materialised stream (tests and small bounded runs)."""
    events = list(events)
    return ReplayableStream(
        factory=lambda: iter(events),
        label=label,
        material={"kind": "finite", "events": len(events)},
    )
