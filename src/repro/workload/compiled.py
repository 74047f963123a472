"""Compiled traces: columnar event streams that replay and load fast.

The paper's entire evaluation is trace-driven replay — the same OO7 trace
is replayed once per policy setting per seed. Regenerating the trace from
the OO7 builder for every policy cell wastes most of a sweep's wall time.
This module provides the capture-once / replay-many representation the
original system used, and the repo's one trace file format ([CWZ93]-style
trace files):

* :func:`compile_trace` materialises any event stream into a
  :class:`CompiledTrace` — a compact columnar form (typed ``array`` columns
  for opcodes / object ids / sizes, one interned string table for slot
  names and phase names, flattened pointer and death lists with offset
  tables);
* iterating a compiled trace decodes exactly the same
  :class:`~repro.events.TraceEvent` dataclasses the generator produced;
  simulations never do — :meth:`~repro.sim.simulator.Simulation.run`
  compiles whatever it is given and replays the columns
  (:mod:`repro.sim.batch`), so a run is the same whichever form it was
  handed;
* :meth:`CompiledTrace.save` / :meth:`CompiledTrace.load` give the trace a
  versioned, checksummed binary on-disk format that loads orders of
  magnitude faster than re-running the OO7 builder.

The representation is immutable once compiled, so one compiled trace can
drive any number of concurrent or sequential simulation runs.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from repro.events import (
    AbortTransactionEvent,
    AccessEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    IdleEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
    RootEvent,
    TraceEvent,
    UpdateEvent,
)
from repro.storage.object_model import ObjectKind

#: Bump when the columnar layout or the binary encoding changes; loaders
#: reject other versions and trace caches key on it.
TRACE_FORMAT_VERSION = 1

_MAGIC = b"RPTC"
#: ``None`` pointer targets are encoded as the most negative int64 — a value
#: no generator can produce as a real object id.
_NONE = -(2**63)

# Opcodes (the ``ops`` column).
_OP_CREATE = 0
_OP_ACCESS = 1
_OP_UPDATE = 2
_OP_WRITE = 3
_OP_ROOT = 4
_OP_PHASE = 5
_OP_IDLE = 6
_OP_BEGIN = 7
_OP_COMMIT = 8
_OP_ABORT = 9


class CompiledTraceError(Exception):
    """Raised when a compiled trace file is malformed, truncated or of an
    unsupported format version."""


class CompiledTrace:
    """A columnar, immutable, replayable representation of one trace.

    Column layout (all ``array`` typecode ``'q'`` unless noted):

    * ``ops`` (``'b'``)   — one opcode per event;
    * ``arg0``            — primary operand: oid / src / txid / ticks /
      string index (phase markers);
    * ``arg1``            — secondary operand: size (creates) or pointer
      target (writes, ``_NONE`` encodes null);
    * ``strings``         — one interned table for slot names, phase names
      and kind tags;
    * creates: ``create_kind`` (string index) plus a pointer-list
      offset table ``create_ptr_start`` over the flattened
      ``ptr_slots`` / ``ptr_targets`` columns;
    * writes: ``write_slot`` (string index) plus a death-list offset table
      ``write_dies_start`` over the flattened ``dies`` column.

    Construct via :func:`compile_trace` or :meth:`load`.
    """

    __slots__ = (
        "ops",
        "arg0",
        "arg1",
        "strings",
        "create_kind",
        "create_ptr_start",
        "ptr_slots",
        "ptr_targets",
        "write_slot",
        "write_dies_start",
        "dies",
        "_batch_cache",
    )

    def __init__(
        self,
        ops: array,
        arg0: array,
        arg1: array,
        strings: list[str],
        create_kind: array,
        create_ptr_start: array,
        ptr_slots: array,
        ptr_targets: array,
        write_slot: array,
        write_dies_start: array,
        dies: array,
    ) -> None:
        self.ops = ops
        self.arg0 = arg0
        self.arg1 = arg1
        self.strings = strings
        self.create_kind = create_kind
        self.create_ptr_start = create_ptr_start
        self.ptr_slots = ptr_slots
        self.ptr_targets = ptr_targets
        self.write_slot = write_slot
        self.write_dies_start = write_dies_start
        self.dies = dies
        # Memoised column views for the interpreters (repro.sim.batch);
        # built on the first replay of this trace.
        self._batch_cache = None

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[TraceEvent]:
        return self.replay()

    def replay(self, start_index: int = 0) -> Iterator[TraceEvent]:
        """Stream the events back, optionally skipping a prefix.

        ``start_index`` positions the replay without decoding the skipped
        events (crash-recovery drills resume mid-trace); indices stay
        absolute with respect to the original stream.
        """
        ops = self.ops
        arg0 = self.arg0
        arg1 = self.arg1
        strings = self.strings
        create_kind = self.create_kind
        create_ptr_start = self.create_ptr_start
        ptr_slots = self.ptr_slots
        ptr_targets = self.ptr_targets
        write_slot = self.write_slot
        write_dies_start = self.write_dies_start
        dies = self.dies

        if start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {start_index}")
        if start_index:
            prefix = ops[:start_index]
            ci = prefix.count(_OP_CREATE)
            wi = prefix.count(_OP_WRITE)
        else:
            ci = wi = 0

        # Decode ObjectKind values once per distinct string index.
        kinds: dict[int, ObjectKind] = {}
        none = _NONE

        for i in range(start_index, len(ops)):
            op = ops[i]
            a = arg0[i]
            if op == _OP_ACCESS:
                yield AccessEvent(oid=a)
            elif op == _OP_WRITE:
                target = arg1[i]
                lo = write_dies_start[wi]
                hi = write_dies_start[wi + 1]
                yield PointerWriteEvent(
                    src=a,
                    slot=strings[write_slot[wi]],
                    target=None if target == none else target,
                    dies=tuple(dies[lo:hi]),
                )
                wi += 1
            elif op == _OP_CREATE:
                ki = create_kind[ci]
                kind = kinds.get(ki)
                if kind is None:
                    kind = kinds.setdefault(ki, ObjectKind(strings[ki]))
                lo = create_ptr_start[ci]
                hi = create_ptr_start[ci + 1]
                yield CreateEvent(
                    oid=a,
                    size=arg1[i],
                    kind=kind,
                    pointers=tuple(
                        (
                            strings[ptr_slots[j]],
                            None if ptr_targets[j] == none else ptr_targets[j],
                        )
                        for j in range(lo, hi)
                    ),
                )
                ci += 1
            elif op == _OP_UPDATE:
                yield UpdateEvent(oid=a)
            elif op == _OP_ROOT:
                yield RootEvent(oid=a)
            elif op == _OP_PHASE:
                yield PhaseMarkerEvent(name=strings[a])
            elif op == _OP_IDLE:
                yield IdleEvent(ticks=a)
            elif op == _OP_BEGIN:
                yield BeginTransactionEvent(txid=a)
            elif op == _OP_COMMIT:
                yield CommitTransactionEvent(txid=a)
            elif op == _OP_ABORT:
                yield AbortTransactionEvent(txid=a)
            else:  # pragma: no cover - compile_trace never emits other ops
                raise CompiledTraceError(f"unknown opcode {op} at event {i}")

    # ------------------------------------------------------------------
    # Binary on-disk format
    # ------------------------------------------------------------------
    #
    # Layout (all integers little-endian):
    #
    #   magic "RPTC" | u16 version | u32 crc32-of-body | u64 body-length
    #   body:
    #     u32 n_strings, then per string: u32 utf8-length + bytes
    #     10 columns, each: u8 typecode-ord + u64 byte-length + raw items
    #
    # The CRC makes torn or truncated writes detectable; loaders raise
    # CompiledTraceError (callers such as TraceCache treat that as a miss).

    _COLUMNS = (
        "ops",
        "arg0",
        "arg1",
        "create_kind",
        "create_ptr_start",
        "ptr_slots",
        "ptr_targets",
        "write_slot",
        "write_dies_start",
        "dies",
    )

    def save(self, target: Union[str, Path, IO[bytes]]) -> None:
        """Write the trace to its versioned binary format."""
        if isinstance(target, (str, Path)):
            with open(target, "wb") as handle:
                self.save(handle)
            return
        body = bytearray()
        body += struct.pack("<I", len(self.strings))
        for text in self.strings:
            raw = text.encode("utf-8")
            body += struct.pack("<I", len(raw))
            body += raw
        for name in self._COLUMNS:
            column = getattr(self, name)
            if sys.byteorder != "little":  # pragma: no cover - exotic hosts
                column = array(column.typecode, column)
                column.byteswap()
            raw = column.tobytes()
            body += struct.pack("<BQ", ord(column.typecode), len(raw))
            body += raw
        target.write(_MAGIC)
        target.write(
            struct.pack("<HIQ", TRACE_FORMAT_VERSION, zlib.crc32(body), len(body))
        )
        target.write(body)

    @classmethod
    def load(cls, source: Union[str, Path, IO[bytes]]) -> "CompiledTrace":
        """Read a trace back; raises :class:`CompiledTraceError` on any
        malformed, truncated, corrupt or version-mismatched input."""
        if isinstance(source, (str, Path)):
            with open(source, "rb") as handle:
                return cls.load(handle)
        return cls.from_bytes(source.read())

    @classmethod
    def from_bytes(cls, data: Union[bytes, bytearray]) -> "CompiledTrace":
        """Decode a trace from exactly :meth:`save`'s output.

        Raises :class:`CompiledTraceError` when the buffer is shorter or
        longer than the header says, or the body fails its CRC.
        """
        view = memoryview(data)
        header_size = len(_MAGIC) + struct.calcsize("<HIQ")
        if len(view) < header_size:
            raise CompiledTraceError("truncated compiled-trace header")
        if bytes(view[: len(_MAGIC)]) != _MAGIC:
            raise CompiledTraceError("not a compiled trace (bad magic)")
        version, crc, body_len = struct.unpack_from("<HIQ", view, len(_MAGIC))
        if version != TRACE_FORMAT_VERSION:
            raise CompiledTraceError(
                f"unsupported compiled-trace format version {version} "
                f"(this build reads version {TRACE_FORMAT_VERSION})"
            )
        if len(view) - header_size != body_len:
            raise CompiledTraceError("compiled trace body is truncated or corrupt")
        body = view[header_size:]
        if zlib.crc32(body) != crc:
            raise CompiledTraceError("compiled trace body is truncated or corrupt")

        offset = 0

        def take(count: int) -> memoryview:
            nonlocal offset
            chunk = body[offset : offset + count]
            if len(chunk) != count:
                raise CompiledTraceError("compiled trace body ended unexpectedly")
            offset += count
            return chunk

        (n_strings,) = struct.unpack("<I", take(4))
        strings = []
        for _ in range(n_strings):
            (length,) = struct.unpack("<I", take(4))
            strings.append(bytes(take(length)).decode("utf-8"))
        columns = []
        for name in cls._COLUMNS:
            typecode_ord, raw_len = struct.unpack("<BQ", bytes(take(9)))
            typecode = chr(typecode_ord)
            itemsize = array(typecode).itemsize
            raw = take(raw_len)
            if raw_len % itemsize:
                raise CompiledTraceError(f"column {name!r} has a partial trailing item")
            column = array(typecode)
            column.frombytes(raw)
            if sys.byteorder != "little":  # pragma: no cover - exotic hosts
                column.byteswap()
            columns.append(column)
        ops, arg0, arg1 = columns[0], columns[1], columns[2]
        if not (len(ops) == len(arg0) == len(arg1)):
            raise CompiledTraceError("event columns disagree on length")
        return cls(ops, arg0, arg1, strings, *columns[3:])

    def byte_size(self) -> int:
        """Approximate in-memory footprint of the columns, in bytes."""
        total = sum(len(s.encode("utf-8")) for s in self.strings)
        for name in self._COLUMNS:
            column = getattr(self, name)
            total += len(column) * column.itemsize
        return total


class TraceBuilder:
    """The one encoder of :class:`CompiledTrace`: owns the column layout and
    the string interning.

    It is a :class:`~repro.events.TraceSink`, so a generator that emits
    through a sink fills the columns directly; :meth:`add` encodes an event
    object. :meth:`finish` hands the columns over and starts the builder
    afresh, string table included, so one builder can cut a long stream
    into chunks; :meth:`chunk` cuts one off and keeps it, so the builder
    still finishes into the whole trace.
    """

    def __init__(self) -> None:
        self.ops = array("b")
        self.arg0 = array("q")
        self.arg1 = array("q")
        self.strings: list[str] = []
        self.create_kind = array("q")
        self.create_ptr_start = array("q", [0])
        self.ptr_slots = array("q")
        self.ptr_targets = array("q")
        self.write_slot = array("q")
        self.write_dies_start = array("q", [0])
        self.dies = array("q")
        self._intern: dict[str, int] = {}
        #: (events, creates, writes) already handed out by :meth:`chunk`.
        self._chunked = (0, 0, 0)

    def _string_index(self, text: str) -> int:
        index = self._intern.get(text)
        if index is None:
            index = self._intern[text] = len(self.strings)
            self.strings.append(text)
        return index

    def _simple(self, op: int, operand: int) -> None:
        self.ops.append(op)
        self.arg0.append(operand)
        self.arg1.append(0)

    def create(
        self,
        oid: int,
        size: int,
        kind: ObjectKind,
        pointers: tuple[tuple[str, Optional[int]], ...] = (),
    ) -> None:
        self.ops.append(_OP_CREATE)
        self.arg0.append(oid)
        self.arg1.append(size)
        # ``_value_`` is ``.value`` without the descriptor call.
        self.create_kind.append(self._string_index(kind._value_))
        for slot, target in pointers:
            self.ptr_slots.append(self._string_index(slot))
            self.ptr_targets.append(_NONE if target is None else target)
        self.create_ptr_start.append(len(self.ptr_slots))

    def write(
        self,
        src: int,
        slot: str,
        target: Optional[int],
        dies: tuple[int, ...] = (),
    ) -> None:
        self.ops.append(_OP_WRITE)
        self.arg0.append(src)
        self.arg1.append(_NONE if target is None else target)
        self.write_slot.append(self._string_index(slot))
        if dies:
            self.dies.extend(dies)
        self.write_dies_start.append(len(self.dies))

    def access(self, oid: int) -> None:
        self._simple(_OP_ACCESS, oid)

    def update(self, oid: int) -> None:
        self._simple(_OP_UPDATE, oid)

    def root(self, oid: int) -> None:
        self._simple(_OP_ROOT, oid)

    def phase(self, name: str) -> None:
        self._simple(_OP_PHASE, self._string_index(name))

    def idle(self, ticks: int = 1) -> None:
        self._simple(_OP_IDLE, ticks)

    def begin(self, txid: int) -> None:
        self._simple(_OP_BEGIN, txid)

    def commit(self, txid: int) -> None:
        self._simple(_OP_COMMIT, txid)

    def abort(self, txid: int) -> None:
        self._simple(_OP_ABORT, txid)

    def add(self, event: TraceEvent) -> None:
        """Encode one event object."""
        cls = type(event)
        if cls is AccessEvent:
            self._simple(_OP_ACCESS, event.oid)
        elif cls is PointerWriteEvent:
            self.write(event.src, event.slot, event.target, event.dies)
        elif cls is CreateEvent:
            self.create(event.oid, event.size, event.kind, event.pointers)
        elif cls is UpdateEvent:
            self._simple(_OP_UPDATE, event.oid)
        elif cls is RootEvent:
            self._simple(_OP_ROOT, event.oid)
        elif cls is PhaseMarkerEvent:
            self.phase(event.name)
        elif cls is IdleEvent:
            self._simple(_OP_IDLE, event.ticks)
        elif cls is BeginTransactionEvent:
            self._simple(_OP_BEGIN, event.txid)
        elif cls is CommitTransactionEvent:
            self._simple(_OP_COMMIT, event.txid)
        elif cls is AbortTransactionEvent:
            self._simple(_OP_ABORT, event.txid)
        else:
            raise TypeError(f"cannot compile unknown trace event {event!r}")

    def finish(self) -> CompiledTrace:
        trace = CompiledTrace(
            self.ops,
            self.arg0,
            self.arg1,
            self.strings,
            self.create_kind,
            self.create_ptr_start,
            self.ptr_slots,
            self.ptr_targets,
            self.write_slot,
            self.write_dies_start,
            self.dies,
        )
        self.__init__()
        return trace

    def chunk(self) -> CompiledTrace:
        """The events added since the last chunk, as a trace of their own.

        The builder keeps them for :meth:`finish`. The chunk's string table
        is the builder's so far, so its string indices are the whole
        trace's; its two offset tables are rebased onto its own pointer and
        death columns.
        """
        e, c, w = self._chunked
        p = self.create_ptr_start[c]
        d = self.write_dies_start[w]
        trace = CompiledTrace(
            self.ops[e:],
            self.arg0[e:],
            self.arg1[e:],
            list(self.strings),
            self.create_kind[c:],
            _rebased(self.create_ptr_start[c:], p),
            self.ptr_slots[p:],
            self.ptr_targets[p:],
            self.write_slot[w:],
            _rebased(self.write_dies_start[w:], d),
            self.dies[d:],
        )
        self._chunked = (len(self.ops), len(self.create_kind), len(self.write_slot))
        return trace


def _rebased(offsets: array, base: int) -> array:
    return array("q", [x - base for x in offsets]) if base else offsets


def compile_trace(events: Iterable[TraceEvent]) -> CompiledTrace:
    """Materialise an event stream into a :class:`CompiledTrace`.

    Consumes the iterable once. Replaying the result is event-for-event
    equal to the original stream (tests assert this property under
    Hypothesis-generated traces). A workload
    (:class:`repro.workload.base.WorkloadSpec`) is drained through its
    ``steps(out)`` into the columns instead; the trace is the same.
    """
    builder = TraceBuilder()
    steps = getattr(events, "steps", None)
    if callable(steps):
        for _ in steps(builder):
            pass
    else:
        add = builder.add
        for event in events:
            add(event)
    return builder.finish()
