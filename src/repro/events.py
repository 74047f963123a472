"""Trace events — the language database applications speak to the simulator.

Traces are streams of these events (§3.2: "traces of database application
events — object creations, accesses, modifications — are used to drive the
simulations"). Workload generators produce them; the simulator replays them
against the object store.

``PointerWriteEvent`` carries a ``dies`` annotation: the objects that become
globally unreachable as a consequence of the write. Generators compute this
constructively (they perform every disconnection deliberately and know the
local structure). The annotation feeds only the store's oracle garbage
accounting — the collector never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Protocol, Union

from repro.storage.object_model import ObjectId, ObjectKind


@dataclass(frozen=True)
class CreateEvent:
    """Allocate a new object.

    ``oid`` is chosen by the generator so that later events can refer to the
    object; generators draw ids from their own monotone counter.
    """

    oid: ObjectId
    size: int
    kind: ObjectKind = ObjectKind.GENERIC
    pointers: tuple[tuple[str, Optional[ObjectId]], ...] = ()


@dataclass(frozen=True)
class AccessEvent:
    """Read an object (clean page touch)."""

    oid: ObjectId


@dataclass(frozen=True)
class UpdateEvent:
    """Modify an object's non-pointer data (dirty page touch)."""

    oid: ObjectId


@dataclass(frozen=True)
class PointerWriteEvent:
    """Write one pointer slot of an existing object.

    Overwriting a non-null slot advances the overwrite clock; writing into an
    empty or null slot is a plain pointer store. ``dies`` lists the objects
    this write disconnects from the database roots.
    """

    src: ObjectId
    slot: str
    target: Optional[ObjectId]
    dies: tuple[ObjectId, ...] = ()


@dataclass(frozen=True)
class RootEvent:
    """Register an object in the database's persistent root set."""

    oid: ObjectId


@dataclass(frozen=True)
class PhaseMarkerEvent:
    """Boundary between application phases (GenDB, Reorg1, ...)."""

    name: str


@dataclass(frozen=True)
class IdleEvent:
    """One tick of database quiescence (used by opportunism studies)."""

    ticks: int = 1


@dataclass(frozen=True)
class BeginTransactionEvent:
    """Open a transaction: subsequent operations are undoable as a unit.

    While a transaction is active the simulator defers garbage collection —
    the paper's model locks the whole database during collection (§3.2), so
    a collection can only run between transactions.
    """

    txid: int


@dataclass(frozen=True)
class CommitTransactionEvent:
    """Commit the active transaction (its effects become permanent)."""

    txid: int


@dataclass(frozen=True)
class AbortTransactionEvent:
    """Abort the active transaction: every effect is physically undone."""

    txid: int


TraceEvent = Union[
    CreateEvent,
    AccessEvent,
    UpdateEvent,
    PointerWriteEvent,
    RootEvent,
    PhaseMarkerEvent,
    IdleEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    AbortTransactionEvent,
]


class TraceSink(Protocol):
    """What a trace generator writes into: one method per event it emits.

    Arguments are the fields of the matching event class. Generators that
    write through a sink run unchanged into event objects
    (:class:`EventSink`) or straight into compiled-trace columns
    (:class:`repro.workload.compiled.TraceBuilder`).
    """

    def create(
        self,
        oid: ObjectId,
        size: int,
        kind: ObjectKind,
        pointers: tuple[tuple[str, Optional[ObjectId]], ...] = (),
    ) -> None: ...

    def write(
        self,
        src: ObjectId,
        slot: str,
        target: Optional[ObjectId],
        dies: tuple[ObjectId, ...] = (),
    ) -> None: ...

    def access(self, oid: ObjectId) -> None: ...

    def update(self, oid: ObjectId) -> None: ...

    def root(self, oid: ObjectId) -> None: ...

    def phase(self, name: str) -> None: ...

    def idle(self, ticks: int = 1) -> None: ...

    def begin(self, txid: int) -> None: ...

    def commit(self, txid: int) -> None: ...

    def abort(self, txid: int) -> None: ...


class EventSink:
    """The :class:`TraceSink` that builds event objects."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def create(
        self,
        oid: ObjectId,
        size: int,
        kind: ObjectKind,
        pointers: tuple[tuple[str, Optional[ObjectId]], ...] = (),
    ) -> None:
        self.events.append(CreateEvent(oid, size, kind, pointers))

    def write(
        self,
        src: ObjectId,
        slot: str,
        target: Optional[ObjectId],
        dies: tuple[ObjectId, ...] = (),
    ) -> None:
        self.events.append(PointerWriteEvent(src, slot, target, dies))

    def access(self, oid: ObjectId) -> None:
        self.events.append(AccessEvent(oid))

    def update(self, oid: ObjectId) -> None:
        self.events.append(UpdateEvent(oid))

    def root(self, oid: ObjectId) -> None:
        self.events.append(RootEvent(oid))

    def phase(self, name: str) -> None:
        self.events.append(PhaseMarkerEvent(name))

    def idle(self, ticks: int = 1) -> None:
        self.events.append(IdleEvent(ticks))

    def begin(self, txid: int) -> None:
        self.events.append(BeginTransactionEvent(txid))

    def commit(self, txid: int) -> None:
        self.events.append(CommitTransactionEvent(txid))

    def abort(self, txid: int) -> None:
        self.events.append(AbortTransactionEvent(txid))


def stream_events(
    steps: Callable[[TraceSink], Iterator[None]],
) -> Iterator[TraceEvent]:
    """Run a step generator into an :class:`EventSink`, streaming its events.

    ``steps(out)`` emits into ``out`` and yields whenever it reaches a point
    where it may be suspended; only the events of one step are ever buffered.
    """
    sink = EventSink()
    for _ in steps(sink):
        yield from sink.events
        sink.events.clear()
    yield from sink.events


@dataclass
class TraceStats:
    """Summary statistics of a trace, for reports and sanity tests."""

    events: int = 0
    creates: int = 0
    accesses: int = 0
    updates: int = 0
    pointer_writes: int = 0
    pointer_overwrites: int = 0
    deaths: int = 0
    bytes_created: int = 0
    bytes_died: int = 0
    phases: list[str] = field(default_factory=list)

    @property
    def garbage_per_overwrite(self) -> float:
        """Bytes of garbage per pointer overwrite — the paper's headline
        workload constant (§2.1 reports ~1 KB per 6 overwrites for OO7)."""
        if self.pointer_overwrites == 0:
            return 0.0
        return self.bytes_died / self.pointer_overwrites


def trace_stats(trace: Iterable[TraceEvent], sizes: Optional[dict[ObjectId, int]] = None) -> TraceStats:
    """Single-pass summary of a trace.

    Object sizes for death accounting are taken from the trace's own creates;
    ``sizes`` can pre-seed sizes for objects created outside the trace.
    """
    stats = TraceStats()
    known_sizes: dict[ObjectId, int] = dict(sizes or {})
    pointer_state: dict[tuple[ObjectId, str], Optional[ObjectId]] = {}
    for event in trace:
        stats.events += 1
        if isinstance(event, CreateEvent):
            stats.creates += 1
            stats.bytes_created += event.size
            known_sizes[event.oid] = event.size
            for slot, target in event.pointers:
                pointer_state[(event.oid, slot)] = target
        elif isinstance(event, AccessEvent):
            stats.accesses += 1
        elif isinstance(event, UpdateEvent):
            stats.updates += 1
        elif isinstance(event, PointerWriteEvent):
            stats.pointer_writes += 1
            key = (event.src, event.slot)
            if pointer_state.get(key) is not None:
                stats.pointer_overwrites += 1
            pointer_state[key] = event.target
            stats.deaths += len(event.dies)
            stats.bytes_died += sum(known_sizes.get(oid, 0) for oid in event.dies)
        elif isinstance(event, PhaseMarkerEvent):
            stats.phases.append(event.name)
    return stats
