"""A finite, materialised event stream for service and drill tests."""

from __future__ import annotations

from typing import Sequence

from repro.events import TraceEvent
from repro.service.stream import ReplayableStream


def finite_stream(
    events: Sequence[TraceEvent], label: str = "finite"
) -> ReplayableStream:
    """A stream that replays ``events``, restartable at any index."""
    events = list(events)
    return ReplayableStream(
        factory=lambda: iter(events),
        label=label,
        material={"kind": "finite", "events": len(events)},
    )
