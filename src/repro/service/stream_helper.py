"""Generation on a second core: one helper interpreter per process.

A stream's chunks are a pure function of its recipe, ``cut(start)``, so any
process can cut them. :meth:`ChunkFeed.cut` hands the pickled recipe to a
helper interpreter that answers with ``CompiledTrace.save`` frames over a
pipe — the pipe's capacity is the run-ahead bound — and falls back to
cutting inline, from the position reached, if the helper dies. Lifecycle
and the hosts not taken: DESIGN §3, "Where generation runs".
"""

from __future__ import annotations

import atexit
import contextlib
import io
import os
import pickle
import select
import signal
import struct
import subprocess
import sys
from typing import Callable, Iterator, Optional

from repro.workload.compiled import CompiledTrace, CompiledTraceError

#: One stop on the chunk route: the chunk, and the index within it of the
#: first event to serve (non-zero only in the chunk a resume lands in).
Chunk = tuple[CompiledTrace, int]

#: Helper → consumer frame header: kind, chunk offset, payload length.
_FRAME = struct.Struct("<cQQ")
_CHUNK, _END, _ERROR = b"C", b"E", b"X"
#: Consumer → helper: a request (its length, then the pickle), or stop.
_REQUEST, _STOP = b"R", b"S"
#: Idle helpers a process keeps; one released beyond them is closed.
_IDLE_HELPERS = 2
#: Every helper this process or a parent it was forked from started.
_HELPERS: list[_Helper] = []


def _spare_core() -> bool:
    """Whether this process may run on at least two CPUs."""
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # pragma: no cover - hosts without affinity masks
        return (os.cpu_count() or 1) >= 2


class ChunkFeed:
    """An iterator of :data:`Chunk` pairs that knows where they were cut:
    ``host`` is ``"helper"`` or ``"inline"``, and ``fallbacks`` counts the
    times a helper feed went on inline."""

    def __init__(self, chunks: Optional[Iterator[Chunk]]) -> None:
        self.host = "inline"
        self.fallbacks = 0
        self._inline = chunks
        self._helper: Optional[_Helper] = None
        self._cut: Optional[Callable[[int], Iterator[Chunk]]] = None
        self._position = 0  # absolute index of the first event the helper owes

    @classmethod
    def cut(cls, cut: Callable[[int], Iterator[Chunk]], start: int) -> "ChunkFeed":
        """``cut(start)``'s chunks, from the helper when ``cut`` pickles and
        a second CPU is there to run it."""
        try:
            request = pickle.dumps((cut, start)) if _spare_core() else None
        except (pickle.PicklingError, AttributeError, TypeError):
            request = None
        if request is None:
            return cls(cut(start))
        feed = cls(None)
        feed.host, feed._cut, feed._position = "helper", cut, start
        try:
            feed._helper = _acquire()
            feed._helper.process.stdin.write(_REQUEST + struct.pack("<Q", len(request)))
            feed._helper.process.stdin.write(request)
            feed._helper.process.stdin.flush()
        except OSError:
            feed._go_inline()
        return feed

    def __iter__(self) -> "ChunkFeed":
        return self

    def __next__(self) -> Chunk:
        helper = self._helper
        if helper is None:
            if self._inline is None:
                raise StopIteration
            return next(self._inline)
        try:
            kind, offset, payload = helper.receive()
            chunk = CompiledTrace.from_bytes(payload) if kind == _CHUNK else None
        except (OSError, EOFError, CompiledTraceError):
            self._go_inline()
            return next(self._inline)
        if chunk is not None:
            self._position += len(chunk) - offset
            return chunk, offset
        self._helper = None
        _release(helper, reusable=True)
        if kind == _ERROR:
            raise pickle.loads(payload)
        raise StopIteration

    def close(self) -> None:
        """Stop and drain the helper, leaving it idle; or close the inline cut."""
        helper, self._helper = self._helper, None
        if helper is not None and helper.owner == os.getpid():
            try:  # stop byte, then drain to the feed's END
                helper.process.stdin.write(_STOP)
                helper.process.stdin.flush()
                while helper.receive()[0] == _CHUNK:
                    pass
            except (OSError, EOFError, ValueError):  # dead, or closed at exit
                _release(helper, reusable=False)
            else:
                _release(helper, reusable=True)
        inline, self._inline = self._inline, None
        if inline is not None and hasattr(inline, "close"):
            inline.close()

    __del__ = close

    def _go_inline(self) -> None:
        """The helper died (or never started): cut the rest here."""
        helper, self._helper = self._helper, None
        if helper is not None:
            _release(helper, reusable=False)
        self.fallbacks += 1
        self._inline = self._cut(self._position)


class _Helper:
    """The consumer's end of one helper interpreter."""

    def __init__(self) -> None:
        self.owner = os.getpid()  # a forked child never touches its parent's
        self.idle = False
        code = f"import sys; sys.path[:] = {sys.path!r}; import {__name__} as h; h.serve()"
        self.process = subprocess.Popen(
            [sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )

    def receive(self) -> tuple[bytes, int, bytes]:
        header = self.process.stdout.read(_FRAME.size)
        if len(header) < _FRAME.size:
            raise EOFError("the stream helper exited")
        kind, offset, size = _FRAME.unpack(header)
        payload = self.process.stdout.read(size)
        if len(payload) < size:
            raise EOFError("the stream helper exited mid-frame")
        return kind, offset, payload

    def close(self) -> None:
        for pipe in (self.process.stdin, self.process.stdout):
            with contextlib.suppress(OSError):
                pipe.close()
        try:
            self.process.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def _acquire() -> _Helper:
    idle = [h for h in _HELPERS if h.owner == os.getpid() and h.idle]
    if idle:
        idle[0].idle = False
        return idle[0]
    _HELPERS.append(_Helper())
    return _HELPERS[-1]


def _release(helper: _Helper, reusable: bool) -> None:
    idle = sum(h.owner == helper.owner and h.idle for h in _HELPERS)
    if reusable and idle < _IDLE_HELPERS:
        helper.idle = True
    elif helper in _HELPERS:
        _HELPERS.remove(helper)
        helper.close()


@atexit.register
def _close_helpers() -> None:
    for helper in [h for h in _HELPERS if h.owner == os.getpid()]:
        _release(helper, reusable=False)


def serve() -> None:
    """The helper interpreter's loop: answer requests until stdin closes.
    A recipe or an error that cannot cross the pipe kills the helper, and
    the consumer cuts the rest inline."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the consumer drains on it
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print goes to stderr, not into a frame
    with contextlib.suppress(BrokenPipeError):
        while tag := os.read(0, 1):
            if tag != _REQUEST:
                continue  # a stop that crossed the END of its feed
            (size,) = struct.unpack("<Q", _read(8))
            cut, start = pickle.loads(_read(size))
            _answer(cut(start), out)
    os._exit(0)  # nothing to flush: a frame the consumer cut short stays unsent


def _read(size: int) -> bytes:
    data = b""
    while len(data) < size:
        more = os.read(0, size - len(data))
        if not more:
            raise BrokenPipeError("the consumer closed the request pipe")
        data += more
    return data


def _answer(chunks: Iterator[Chunk], out) -> None:
    """Frame one request's chunks until they end, fail or are stopped."""
    while True:
        try:
            chunk, offset = next(chunks)
        except StopIteration:
            break
        except Exception as error:
            payload = pickle.dumps(error)
            pickle.loads(payload)
            _frame(out, _ERROR, 0, payload)
            return
        buffer = io.BytesIO()
        chunk.save(buffer)
        _frame(out, _CHUNK, offset, buffer.getbuffer())
        if select.select([0], [], [], 0)[0]:  # a stop byte (or EOF) waits
            os.read(0, 1)
            break
    _frame(out, _END)


def _frame(out, kind: bytes, offset: int = 0, payload=b"") -> None:
    out.write(_FRAME.pack(kind, offset, len(payload)))
    out.write(payload)
    out.flush()
