"""A finite, materialised event stream for service and drill tests."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.events import TraceEvent


@dataclass
class FiniteStream:
    """An events-only ``EventStream``: the service compiles its chunks
    (``repro.service.stream.stream_chunks``' events route)."""

    events: list[TraceEvent]
    label: str = "finite"
    material: dict[str, Any] = field(default_factory=dict)

    def events_from(self, start_index: int = 0) -> Iterator[TraceEvent]:
        if start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {start_index}")
        return itertools.islice(self.events, start_index, None)


def finite_stream(events: Sequence[TraceEvent], label: str = "finite") -> FiniteStream:
    """A stream that replays ``events``, restartable at any index."""
    events = list(events)
    return FiniteStream(events, label, {"kind": "finite", "events": len(events)})
