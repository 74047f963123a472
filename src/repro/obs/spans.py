"""Span-based tracing of run phases.

A :class:`Tracer` times named phases (trace compile, sweep, per-run,
per-collection) as *spans*: each span records its name, its start offset
relative to the tracer's epoch, its wall-clock duration, and arbitrary
JSON-compatible attributes. Spans nest — the tracer tracks depth so a
pretty-printer can indent children — but are recorded flat, in completion
order, which is what a JSON-lines telemetry file wants.

Wall-clock times are the *only* non-deterministic values the observability
layer records, and they live exclusively here and in span records — never
in anything that feeds a simulation summary or a cache fingerprint.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    #: Seconds from the tracer's epoch to the span's start.
    start_s: float
    #: Wall-clock duration in seconds.
    wall_s: float
    #: Nesting depth at the time the span started (0 = top level).
    depth: int = 0
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        record = {
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "wall_s": round(self.wall_s, 6),
            "depth": self.depth,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class Tracer:
    """Times named phases; finished spans accumulate in :attr:`spans`.

    Args:
        sink: Optional callback invoked with each :class:`SpanRecord` as it
            finishes (the telemetry writer registers itself here so spans
            stream into the run's record list in completion order).
    """

    def __init__(self, sink: Optional[Callable[[SpanRecord], None]] = None) -> None:
        self._epoch = time.perf_counter()
        self._depth = 0
        self.spans: List[SpanRecord] = []
        self.sink = sink

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[SpanRecord]:
        """Context manager timing one phase; yields the live record."""
        start = time.perf_counter()
        record = SpanRecord(
            name=name,
            start_s=start - self._epoch,
            wall_s=0.0,
            depth=self._depth,
            attrs=dict(attrs),
        )
        self._depth += 1
        try:
            yield record
        finally:
            self._depth -= 1
            record.wall_s = time.perf_counter() - start
            self.spans.append(record)
            if self.sink is not None:
                self.sink(record)

    def record(self, name: str, wall_s: float, **attrs: object) -> SpanRecord:
        """Record an externally timed span (no context manager)."""
        record = SpanRecord(
            name=name,
            start_s=time.perf_counter() - self._epoch - wall_s,
            wall_s=wall_s,
            depth=self._depth,
            attrs=dict(attrs),
        )
        self.spans.append(record)
        if self.sink is not None:
            self.sink(record)
        return record
