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

Replaying a compiled trace is event-for-event identical to running the
generator, so caching never changes simulation results — property tests
assert byte-identical summaries.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.canonical import canonical_value
from repro.events import TraceEvent
from repro.workload.compiled import (
    TRACE_FORMAT_VERSION,
    CompiledTrace,
    CompiledTraceError,
    compile_trace,
)

#: Default number of compiled traces the in-process memo retains. One OO7
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
    #: Resolutions answered zero-copy from a shared-memory segment.
    shm_hits: int = 0
    #: Traces this cache published into shared memory (parent side).
    shm_published: int = 0

    @property
    def resolutions(self) -> int:
        return (
            self.memo_hits
            + self.shm_hits
            + self.disk_hits
            + self.builds
            + self.uncacheable
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of resolutions that skipped the workload generator."""
        total = self.resolutions
        if total == 0:
            return 0.0
        return (self.memo_hits + self.shm_hits + self.disk_hits) / total

    def as_metrics(self) -> dict:
        """Flat metric name → value dict (for the observability registry)."""
        return {
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "builds": self.builds,
            "quarantined": self.quarantined,
            "uncacheable": self.uncacheable,
            "shm_hits": self.shm_hits,
            "shm_published": self.shm_published,
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
            on-disk layer — the instance still memoises in process, so
            serial sweeps build each trace once without writing any files
            (worker pools install exactly this when no disk cache is
            configured).
        memo_traces: In-process LRU capacity, in traces (0 disables).
    """

    def __init__(
        self,
        root: Union[str, Path, None],
        memo_traces: int = DEFAULT_MEMO_TRACES,
    ) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.memo_traces = memo_traces
        self._memo: OrderedDict[str, CompiledTrace] = OrderedDict()
        #: Fingerprint → shared-memory segment name (see ``attach_shared``).
        self._shared: dict[str, str] = {}
        self.stats = TraceCacheStats()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def get_or_build(
        self,
        workload,
        seed: int,
        builder: Optional[Callable[[], Iterable[TraceEvent]]] = None,
    ) -> CompiledTrace:
        """Return the compiled trace for ``(workload, seed)``.

        Resolution order: in-process memo → on-disk binary → run the
        generator (``builder``, defaulting to the workload registry) and
        compile, populating both layers. A workload spec that cannot be
        fingerprinted is built directly, uncached.
        """
        try:
            key = trace_fingerprint(workload, seed)
        except TypeError:
            self.stats.uncacheable += 1
            return compile_trace(self._events(workload, seed, builder))

        memo = self._memo
        hit = memo.get(key)
        if hit is not None:
            memo.move_to_end(key)
            self.stats.memo_hits += 1
            return hit

        segment = self._shared.get(key)
        if segment is not None:
            trace = self._attach_shared(key, segment)
            if trace is not None:
                self.stats.shm_hits += 1
                self._remember(key, trace)
                return trace

        trace = self._load(key)
        if trace is not None:
            self.stats.disk_hits += 1
        else:
            trace = compile_trace(self._events(workload, seed, builder))
            self.stats.builds += 1
            self.put(key, trace)
        self._remember(key, trace)
        return trace

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
    def _events(workload, seed, builder):
        if builder is not None:
            return builder()
        events = getattr(workload, "events", None)
        if callable(events):
            # An instantiated protocol workload generates its own trace
            # (one-shot — but the compiled result is cached immediately);
            # one that offers ``emit_trace`` is handed to compile_trace whole.
            return workload if hasattr(workload, "emit_trace") else events()
        # Local import: repro.sim.spec imports repro.workload generators, so
        # a module-scope import here would close an import cycle.
        from repro.sim.spec import build_workload

        return build_workload(workload, seed)

    def _remember(self, key: str, trace: CompiledTrace) -> None:
        if self.memo_traces <= 0:
            return
        memo = self._memo
        memo[key] = trace
        memo.move_to_end(key)
        while len(memo) > self.memo_traces:
            memo.popitem(last=False)

    # ------------------------------------------------------------------
    # Shared-memory layer (worker side)
    # ------------------------------------------------------------------

    def attach_shared(self, mapping: dict[str, str]) -> None:
        """Register published shared-memory segments (fingerprint → name).

        The parallel engine's pool initializer passes the parent's
        :meth:`~repro.workload.shm.SharedTraceArena.plan` here; resolutions
        of a registered fingerprint then decode zero-copy out of the shared
        mapping instead of reading the on-disk entry. Purely an
        optimisation: any attach failure silently degrades to the disk
        layer, which holds an identical trace.
        """
        self._shared.update(mapping)

    def _attach_shared(self, key: str, segment: str) -> Optional[CompiledTrace]:
        from repro.workload.shm import attach_trace

        try:
            return attach_trace(segment)
        except (OSError, CompiledTraceError, ValueError):
            # Publisher gone or payload unusable — stop consulting this
            # segment and fall back to disk.
            del self._shared[key]
            return None

    # ------------------------------------------------------------------
    # On-disk layer
    # ------------------------------------------------------------------

    def entry_path(self, key: str) -> Optional[Path]:
        """Path of the on-disk entry for ``key`` if it exists (else None).

        The parallel engine publishes shared segments straight from these
        files, so the bytes workers map are exactly the bytes they would
        have read.
        """
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
