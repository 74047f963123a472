"""Unit tests for trace events and trace statistics."""

from repro.events import (
    AccessEvent,
    CreateEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
    UpdateEvent,
    trace_stats,
)
from repro.storage.object_model import ObjectKind


def test_trace_stats_counts_event_kinds():
    trace = [
        PhaseMarkerEvent("p1"),
        CreateEvent(1, 100, ObjectKind.GENERIC),
        CreateEvent(2, 50, ObjectKind.GENERIC),
        AccessEvent(1),
        UpdateEvent(2),
        PointerWriteEvent(1, "x", 2),
        PhaseMarkerEvent("p2"),
    ]
    stats = trace_stats(trace)
    assert stats.events == 7
    assert stats.creates == 2
    assert stats.accesses == 1
    assert stats.updates == 1
    assert stats.pointer_writes == 1
    assert stats.bytes_created == 150
    assert stats.phases == ["p1", "p2"]


def test_trace_stats_distinguishes_overwrites_from_stores():
    trace = [
        CreateEvent(1, 10),
        CreateEvent(2, 10),
        CreateEvent(3, 10),
        PointerWriteEvent(1, "x", 2),  # store (slot never written)
        PointerWriteEvent(1, "x", 3),  # overwrite
        PointerWriteEvent(1, "x", None),  # overwrite (clearing)
        PointerWriteEvent(1, "x", 2),  # store (slot was null)
    ]
    stats = trace_stats(trace)
    assert stats.pointer_writes == 4
    assert stats.pointer_overwrites == 2


def test_trace_stats_death_accounting():
    trace = [
        CreateEvent(1, 10),
        CreateEvent(2, 300),
        PointerWriteEvent(1, "x", 2),
        PointerWriteEvent(1, "x", None, dies=(2,)),
    ]
    stats = trace_stats(trace)
    assert stats.deaths == 1
    assert stats.bytes_died == 300
    assert stats.garbage_per_overwrite == 300.0


def test_trace_stats_uses_preseeded_sizes():
    trace = [PointerWriteEvent(1, "x", None, dies=(99,))]
    stats = trace_stats(trace, sizes={99: 77})
    assert stats.bytes_died == 77


def test_garbage_per_overwrite_zero_without_overwrites():
    assert trace_stats([CreateEvent(1, 10)]).garbage_per_overwrite == 0.0


def test_create_pointers_initialise_slot_state():
    """A slot set at creation counts as written — a later write overwrites."""
    trace = [
        CreateEvent(1, 10),
        CreateEvent(2, 10, pointers=(("x", 1),)),
        PointerWriteEvent(2, "x", None),
    ]
    assert trace_stats(trace).pointer_overwrites == 1


def test_events_are_immutable():
    event = CreateEvent(1, 10)
    try:
        event.size = 20  # type: ignore[misc]
        mutated = True
    except Exception:
        mutated = False
    assert not mutated
