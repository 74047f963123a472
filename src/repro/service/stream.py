"""Replayable event streams: the unbounded analogue of compiled traces.

A finite drill resumes after a crash with ``Simulation.run(trace, start)``;
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
:data:`~repro.workload.chunks.CHUNK_EVENTS` events. The same generator body
run into an :class:`~repro.events.EventSink` is the stream's event form,
which tests and tools read; a source that only has events (a materialised
list, a wrapper around another stream) is compiled into chunks on the way
in.

Determinism also makes a stream's chunks a pure function of (recipe,
start, chunk length), so where they are cut changes nothing in them. A
``steps`` stream whose recipe pickles — :func:`grammar_stream` and
:func:`tenant_stream` build theirs from ``functools.partial`` — is cut by
this process's helper interpreter on a second CPU, about one chunk ahead
of the service (:mod:`repro.workload.stream_helper`); everything else
(lambda ``steps``, events-only wrappers, a one-CPU host) is cut inline by
the consumer. Both hosts run
:func:`~repro.workload.chunks._generated_chunks`, and a helper that dies
mid-stream hands over to it at the position reached. Every chunk route
returns a :class:`~repro.workload.stream_helper.ChunkFeed`, which says
which host served it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Protocol, runtime_checkable

from repro.events import TraceEvent, TraceSink, stream_events
from repro.workload import chunks
from repro.workload.chunks import Chunk, _generated_chunks
from repro.workload.compiled import TraceBuilder
from repro.workload.grammar import GrammarWorkload, WorkloadConfig
from repro.workload.stream_helper import ChunkFeed
from repro.workload.tenants import TenantMix, TenantMixConfig


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
        batch = list(itertools.islice(events, chunks.CHUNK_EVENTS))
        if not batch:
            return
        for event in batch:
            add(event)
        yield builder.finish(), 0


def stream_chunks(stream: EventStream, start_index: int = 0) -> ChunkFeed:
    """The chunk route of any stream, from absolute event ``start_index``."""
    chunks_from = getattr(stream, "chunks_from", None)
    if chunks_from is None:
        return ChunkFeed(_compiled_chunks(stream.events_from(start_index)))
    feed = chunks_from(start_index)
    return feed if isinstance(feed, ChunkFeed) else ChunkFeed(feed)


@dataclass
class ReplayableStream:
    """An :class:`EventStream` over a step generator.

    ``steps`` is a sink-emitting step generator (``steps(out)`` emits into
    ``out`` and yields between events). It must reproduce the identical
    sequence on every call (seeded generators qualify; a one-shot iterator
    object does not).
    """

    steps: Callable[[TraceSink], Iterator[None]]
    label: str = "stream"
    #: Plain-data description, for logs and soak reports.
    material: dict[str, Any] = field(default_factory=dict)

    def events_from(self, start_index: int = 0) -> Iterator[TraceEvent]:
        if start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {start_index}")
        events = stream_events(self.steps)
        if start_index:
            events = itertools.islice(events, start_index, None)
        return events

    def chunks_from(self, start_index: int = 0) -> ChunkFeed:
        """Column chunks covering the stream from ``start_index`` on.

        They are cut by :func:`~repro.workload.chunks._generated_chunks` —
        in this process's helper interpreter when ``steps`` pickles and a
        second CPU is there, inline otherwise. The chunk length is
        :data:`~repro.workload.chunks.CHUNK_EVENTS` as it reads now.
        """
        if start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {start_index}")
        return ChunkFeed.cut(
            functools.partial(_generated_chunks, self.steps, chunks.CHUNK_EVENTS),
            start_index,
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
