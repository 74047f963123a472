"""Column chunks: a step generator's trace, cut into bounded pieces.

A workload with a step form (``steps(out)``, see
:mod:`repro.workload.base`) emits straight into a
:class:`~repro.workload.compiled.TraceBuilder`; cutting the builder every
:data:`CHUNK_EVENTS` events turns the trace into a sequence of
:class:`~repro.workload.compiled.CompiledTrace` chunks that can be replayed
while the rest is still being generated. Generation is deterministic, so
the chunks are a pure function of (steps, chunk length, start): any process
can cut them, and :mod:`repro.workload.stream_helper` decides which one
does. Two consumers read them — the service, over an unbounded stream, and
the experiment engine, over a trace-cache miss (DESIGN §3, "Where
generation runs").
"""

from __future__ import annotations

from typing import Callable, Generator, Iterator, Optional

from repro.events import TraceSink
from repro.workload.compiled import CompiledTrace, TraceBuilder

#: One stop on the chunk route: the chunk, and the index within it of the
#: first event to serve (non-zero only in the chunk a resume lands in).
Chunk = tuple[CompiledTrace, int]

#: Events per column chunk. Chunks bound how far generation runs ahead of
#: its consumer and how large a chunk's string table can get; results never
#: depend on the value.
CHUNK_EVENTS = 4096


def _cut(
    steps: Callable[[TraceSink], Iterator[None]],
    chunk_events: int,
    builder: TraceBuilder,
    keep: bool,
) -> Iterator[CompiledTrace]:
    """Run a step generator into ``builder``, cutting a chunk every
    ``chunk_events`` events. With ``keep`` the builder keeps what it cut
    (:meth:`~repro.workload.compiled.TraceBuilder.chunk`) and ends holding
    the whole trace; without, every chunk starts it afresh, so an unbounded
    stream holds one chunk at a time."""
    cut = builder.chunk if keep else builder.finish
    kept = 0  # events the builder still holds from earlier chunks
    for _ in steps(builder):
        if len(builder.ops) - kept >= chunk_events:
            yield cut()
            if keep:
                kept = len(builder.ops)
    if len(builder.ops) > kept:
        yield cut()


def _generated_chunks(
    steps: Callable[[TraceSink], Iterator[None]],
    chunk_events: int,
    start_index: int,
    whole: bool = False,
) -> Generator[Chunk, None, Optional[CompiledTrace]]:
    """A step stream's chunks from ``start_index``: regenerate from zero,
    drop the chunks that end at or before it, enter the one that straddles
    it part-way. With ``whole`` the generator then *returns* the complete
    trace — byte for byte what :func:`~repro.workload.compiled.compile_trace`
    makes of ``steps`` — so whoever cut the chunks also assembles the trace
    a cache keeps. What a helper interpreter runs, and the inline host."""
    builder = TraceBuilder()
    seen = 0
    for chunk in _cut(steps, chunk_events, builder, whole):
        end = seen + len(chunk)
        if end > start_index:
            yield chunk, max(0, start_index - seen)
        seen = end
    return builder.finish() if whole else None
