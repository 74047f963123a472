"""Content-addressed cache of compiled workload traces.

Every sweep in the paper's protocol replays the identical (workload, seed)
trace once per policy cell — Figure 1 alone replays each seed's OO7 trace
once per fixed rate. Rebuilding the trace from the OO7 builder for every
cell is pure waste: the trace is a deterministic function of the workload
spec and the seed. This cache materialises each trace **once per sweep**
into a :class:`~repro.workload.compiled.CompiledTrace` and reuses it
everywhere:

* an **in-process memo** (bounded LRU) answers repeat resolutions in the
  same process — the serial engine path and warm worker processes;
* **on-disk compiled binaries**, content-addressed like
  :mod:`repro.sim.cache` (SHA-256 of the canonical workload-spec material,
  the seed, the compiled-trace format version and the package version),
  shared between worker processes and across runs.

Corrupt or version-mismatched entries quarantine into a ``quarantine/``
sidecar and degrade to a miss, mirroring the result cache's behaviour.

A miss need not be built before it is replayed. :meth:`TraceCache.resolve`
answers one with a :class:`StreamedTrace`: the workload's step generator is
cut into chunks (on a second CPU when there is one) while the simulation
replays the ones already cut, and the whole trace, assembled by whoever cut
the chunks, enters the cache once the run has succeeded.

Replaying a compiled trace is event-for-event identical to running the
generator, so caching never changes simulation results — property tests
assert byte-identical summaries.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from repro.canonical import canonical_value
from repro.events import TraceSink
from repro.workload import chunks
from repro.workload.base import WorkloadSpec
from repro.workload.chunks import Chunk, _generated_chunks
from repro.workload.compiled import (
    TRACE_FORMAT_VERSION,
    CompiledTrace,
    CompiledTraceError,
    compile_trace,
)
from repro.workload.stream_helper import ChunkFeed

#: Number of compiled traces the in-process memo retains. One OO7
#: Small' trace is a few hundred KB compiled; sweeps rarely touch more than
#: a handful of (workload, seed) pairs at once.
DEFAULT_MEMO_TRACES = 8


def trace_fingerprint(workload, seed: int) -> str:
    """Stable SHA-256 content address of one (workload, seed) trace.

    ``workload`` is either a declarative :class:`~repro.sim.spec.WorkloadSpec`
    (registry key + kwargs — or anything else the canonicaliser accepts
    directly) or an instantiated workload conforming to the
    :class:`repro.workload.base.WorkloadSpec` protocol, in which case its
    ``canonical_material()`` is digested. The package version is part of the
    material so generator changes invalidate stale traces, exactly as the
    result cache invalidates stale summaries.

    Raises:
        TypeError: when the workload carries values that cannot be
            canonicalised (callers treat that as "uncacheable").
    """
    from repro import __version__

    describe = getattr(workload, "canonical_material", None)
    described = describe() if callable(describe) else workload
    material = {
        "trace_format": TRACE_FORMAT_VERSION,
        "version": __version__,
        "workload": canonical_value(described),
        "seed": seed,
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class TraceCacheStats:
    """Observability counters for one :class:`TraceCache` instance."""

    #: Resolutions answered from the in-process memo.
    memo_hits: int = 0
    #: Resolutions answered by loading a compiled binary from disk.
    disk_hits: int = 0
    #: Resolutions that had to run the workload generator.
    builds: int = 0
    #: Corrupt / incompatible on-disk entries moved aside.
    quarantined: int = 0
    #: Resolutions that bypassed the cache (uncacheable workload spec).
    uncacheable: int = 0
    #: Builds replayed while they were cut (:class:`StreamedTrace`; each is
    #: also one of ``builds``), and how many of those a helper cut.
    streamed: int = 0
    streamed_by_helper: int = 0
    #: Seconds those replays waited for their next chunk.
    stream_wait_s: float = 0.0
    #: Helpers that died mid-feed, leaving the rest to be cut inline.
    stream_fallbacks: int = 0

    @property
    def resolutions(self) -> int:
        return self.memo_hits + self.disk_hits + self.builds + self.uncacheable

    @property
    def hit_rate(self) -> float:
        """Fraction of resolutions that skipped the workload generator."""
        total = self.resolutions
        if total == 0:
            return 0.0
        return (self.memo_hits + self.disk_hits) / total

    def as_metrics(self) -> dict:
        """Flat metric name → value dict (for the observability registry)."""
        return {
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "builds": self.builds,
            "quarantined": self.quarantined,
            "uncacheable": self.uncacheable,
            "streamed": self.streamed,
            "streamed_by_helper": self.streamed_by_helper,
            "stream_wait_s": round(self.stream_wait_s, 6),
            "stream_fallbacks": self.stream_fallbacks,
            "hit_rate": self.hit_rate,
        }


class TraceCache:
    """Directory-backed, memoised store of compiled workload traces.

    Usage::

        cache = TraceCache(".repro-cache/traces")
        trace = cache.get_or_build(spec.workload, seed)
        Simulation(policy=..., selection=...).run(trace)

    Args:
        root: Cache directory (created on demand). ``None`` disables the
            on-disk layer — the instance still memoises in process, so a
            sweep builds each trace once per process without writing any
            files. The engine installs exactly this when no disk cache is
            configured.
    """

    def __init__(self, root: Union[str, Path, None]) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._memo: OrderedDict[str, CompiledTrace] = OrderedDict()
        self.stats = TraceCacheStats()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def get_or_build(self, workload, seed: int) -> CompiledTrace:
        """Return the compiled trace for ``(workload, seed)``.

        Resolution order: in-process memo → on-disk binary → run the
        generator and compile, populating both layers. A workload spec
        that cannot be fingerprinted is built directly, uncached.
        """
        try:
            key = trace_fingerprint(workload, seed)
        except TypeError:
            self.stats.uncacheable += 1
            return compile_trace(self._workload(workload, seed))
        trace = self._cached(key)
        if trace is None:
            trace = compile_trace(self._workload(workload, seed))
            self._keep(key, trace)
        return trace

    def resolve(self, workload, seed: int) -> Union[CompiledTrace, "StreamedTrace"]:
        """The trace for ``(workload, seed)``, cached or streamed.

        A memo or disk hit is returned as it is. A miss comes back as a
        :class:`StreamedTrace` — replayed while it is cut, cached once the
        run that replayed it commits it. An uncacheable workload is built
        whole, uncached, as :meth:`get_or_build` builds it.
        """
        try:
            key = trace_fingerprint(workload, seed)
        except TypeError:
            return self.get_or_build(workload, seed)
        trace = self._cached(key)
        if trace is not None:
            return trace
        return StreamedTrace(self, key, self._workload(workload, seed).steps)

    def _cached(self, key: str) -> Optional[CompiledTrace]:
        """The memo or disk layer's trace for ``key``."""
        memo = self._memo
        hit = memo.get(key)
        if hit is not None:
            memo.move_to_end(key)
            self.stats.memo_hits += 1
            return hit
        trace = self._load(key)
        if trace is not None:
            self.stats.disk_hits += 1
            self._remember(key, trace)
        return trace

    def _keep(self, key: str, trace: CompiledTrace) -> None:
        """Cache a trace this instance built (memo and disk), as one build."""
        self.stats.builds += 1
        self.put(key, trace)
        self._remember(key, trace)

    def warm(self, workload, seed: int) -> bool:
        """Ensure the on-disk entry for ``(workload, seed)`` exists.

        Returns True when the trace had to be built (a cold entry). Used by
        the parallel engine to materialise each unique trace exactly once
        per sweep before fanning simulation tasks out.
        """
        before = self.stats.builds
        self.get_or_build(workload, seed)
        return self.stats.builds > before

    @staticmethod
    def _workload(workload, seed: int) -> WorkloadSpec:
        """The instantiated workload: a registry spec built for ``seed``,
        or ``workload`` itself."""
        # Local import: repro.sim.spec imports repro.workload generators, so
        # a module-scope import here would close an import cycle.
        from repro.sim import spec

        if isinstance(workload, spec.WorkloadSpec):
            return spec.build_workload(workload, seed)
        return workload

    def _remember(self, key: str, trace: CompiledTrace) -> None:
        memo = self._memo
        memo[key] = trace
        memo.move_to_end(key)
        while len(memo) > DEFAULT_MEMO_TRACES:
            memo.popitem(last=False)

    # ------------------------------------------------------------------
    # On-disk layer
    # ------------------------------------------------------------------

    def entry_path(self, key: str) -> Optional[Path]:
        """Path of the on-disk entry for ``key`` if it exists (else None)."""
        if self.root is None:
            return None
        path = self._path(key)
        return path if path.exists() else None

    def _load(self, key: str) -> Optional[CompiledTrace]:
        if self.root is None:
            return None
        path = self._path(key)
        try:
            return CompiledTrace.load(path)
        except FileNotFoundError:
            return None
        except (CompiledTraceError, OSError):
            self._quarantine(path)
            return None

    def put(self, key: str, trace: CompiledTrace) -> None:
        """Store one compiled trace atomically under its fingerprint."""
        if self.root is None:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        trace.save(tmp)
        os.replace(tmp, path)

    def __contains__(self, key: str) -> bool:
        return self.root is not None and self._path(key).exists()

    def __len__(self) -> int:
        if self.root is None:
            return 0
        return sum(1 for _ in self.root.glob("*/*.trace"))

    def clear(self) -> int:
        """Delete every on-disk entry and the memo; returns entries removed."""
        self._memo.clear()
        if self.root is None:
            return 0
        removed = 0
        for entry in self.root.glob("*/*.trace"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.trace"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry into ``quarantine/`` (best-effort)."""
        target_dir = self.root / "quarantine"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / f"{path.name}.corrupt")
            self.stats.quarantined += 1
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass


class StreamedTrace:
    """A trace-cache miss, replayed while it is being cut.

    Iterating it yields the :data:`~repro.workload.chunks.Chunk` pairs of
    the workload's step generator, from a
    :class:`~repro.workload.stream_helper.ChunkFeed`: cut by this process's
    helper interpreter on a second CPU, or inline on a one-CPU host or when
    the workload does not pickle. Whoever cuts the chunks also assembles
    the whole trace and hands it over once they have ended. :meth:`commit`
    puts that trace into the cache; a caller does so only after the run it
    fed succeeded, so a failed, crashed or timed-out run caches nothing.
    :meth:`close` stops the feed — call it however the run ends.
    """

    def __init__(
        self,
        cache: TraceCache,
        key: str,
        steps: Callable[[TraceSink], Iterator[None]],
    ) -> None:
        self._cache = cache
        self._key = key
        recipe = functools.partial(
            _generated_chunks, steps, chunks.CHUNK_EVENTS, whole=True
        )
        self.feed = ChunkFeed.cut(recipe, 0)
        #: Seconds the consumer waited for its next chunk.
        self.wait_s = 0.0

    def __iter__(self) -> Iterator[Chunk]:
        feed = self.feed
        clock = time.perf_counter
        while True:
            asked = clock()
            item = next(feed, None)
            self.wait_s += clock() - asked
            if item is None:
                return
            yield item

    def close(self) -> None:
        self.feed.close()

    def commit(self) -> CompiledTrace:
        """Cache the assembled trace, in memo and on disk, as one build."""
        feed = self.feed
        if feed.trace is None:
            raise RuntimeError("a streamed trace commits once its chunks have ended")
        stats = self._cache.stats
        stats.streamed += 1
        stats.streamed_by_helper += feed.host == "helper"
        stats.stream_wait_s += self.wait_s
        stats.stream_fallbacks += feed.fallbacks
        self._cache._keep(self._key, feed.trace)
        return feed.trace
