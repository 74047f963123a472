"""Content-addressed on-disk cache for simulation results.

Every data point in the paper's protocol is the outcome of a deterministic
simulation: the same (policy, workload, selection, simulation config, seed)
always produces the same :class:`~repro.sim.metrics.SimulationSummary`.
That makes results safe to memoise on disk, keyed by a stable SHA-256
fingerprint of the declarative :class:`~repro.sim.spec.ExperimentSpec`
material plus the seed and the package version — so re-running
``repro-experiments all`` after an unrelated edit is near-instant, while
any change to a policy parameter, workload knob, store geometry, or the
package itself naturally misses.

Entries are small JSON files (summary plus, optionally, the per-collection
records Figures 6/7 need), sharded two-hex-deep to keep directories
shallow, and written atomically (temp file + rename) so concurrent sweeps
sharing a cache directory never observe torn entries.

Corrupt entries (truncated JSON, incompatible schema) are never silently
deleted: they are moved into a ``quarantine/`` sidecar directory under the
cache root — renamed ``<key>.json.corrupt`` so they are invisible to the
entry glob — where they stay available for post-mortems while the lookup
itself degrades to a plain miss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.sim.metrics import CollectionRecord, SimulationSummary
from repro.sim.spec import ExperimentSpec, spec_material

#: Bump to invalidate every existing cache entry on a format change.
_FORMAT = 1


def spec_fingerprint(spec: ExperimentSpec, seed: int) -> str:
    """Stable SHA-256 content address of one (spec, seed) simulation run."""
    from repro import __version__

    material = {
        "format": _FORMAT,
        "version": __version__,
        **spec_material(spec, seed=seed),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CachedRun:
    """One memoised simulation run."""

    summary: SimulationSummary
    records: Optional[list[CollectionRecord]] = None


class ResultCache:
    """Directory-backed store of memoised simulation runs.

    Usage::

        cache = ResultCache("results/.cache")
        key = spec_fingerprint(spec, seed)
        hit = cache.get(key)
        if hit is None:
            ...run the simulation...
            cache.put(key, summary, records)

    Args:
        root: Cache directory (created on demand).
        metrics: Optional :class:`~repro.obs.registry.MetricsRegistry`;
            when given, lookups and stores increment ``result_cache.hits``
            / ``.misses`` / ``.puts`` / ``.quarantined`` counters.
            Observability only — never affects cache behaviour.
    """

    def __init__(self, root: Union[str, Path], metrics=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Corrupt entries moved aside by this cache instance.
        self.quarantined = 0
        self.metrics = metrics

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(self, key: str, want_records: bool = False) -> Optional[CachedRun]:
        """Return the cached run for ``key``, or None on a miss.

        With ``want_records=True`` an entry that was stored without
        per-collection records counts as a miss (the caller needs data the
        cache does not have); the re-run will overwrite the entry with one
        that includes them.
        """
        hit = self._read(key, want_records)
        self._count("hits" if hit is not None else "misses")
        return hit

    def _read(self, key: str, want_records: bool) -> Optional[CachedRun]:
        """The lookup itself, without hit/miss accounting."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            # A torn or corrupt entry (bad JSON, or bytes that are not
            # UTF-8: both are ValueErrors) is a miss, but the bytes may
            # matter for a post-mortem: quarantine them instead of deleting.
            self._quarantine(path)
            return None
        try:
            summary = SimulationSummary(**payload["summary"])
            raw_records = payload.get("records")
            records = (
                [CollectionRecord(**record) for record in raw_records]
                if raw_records is not None
                else None
            )
        except (KeyError, TypeError):
            # Entry written by an incompatible summary/record schema.
            self._quarantine(path)
            return None
        if want_records and records is None:
            return None
        return CachedRun(summary=summary, records=records)

    def put(
        self,
        key: str,
        summary: SimulationSummary,
        records: Optional[list[CollectionRecord]] = None,
    ) -> None:
        """Store one run atomically under its fingerprint.

        A record-less write never *downgrades* an existing entry that has
        per-collection records: a later ``keep_records=False`` sweep would
        otherwise strip records that a ``keep_records=True`` caller paid to
        compute, re-poisoning the entry for the next records-needing run.
        """
        path = self._path(key)
        if records is None:
            # _read, not get: this internal probe is bookkeeping and must
            # not pollute the hit/miss counters.
            if self._read(key, want_records=True) is not None:
                return
        self._count("puts")
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "summary": dataclasses.asdict(summary),
            "records": (
                [dataclasses.asdict(record) for record in records]
                if records is not None
                else None
            ),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(blob)
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for entry in self.root.glob("*/*.json"):
            self._discard(entry)
            removed += 1
        return removed

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry into the sidecar directory (best-effort).

        The ``.corrupt`` suffix keeps quarantined files out of the
        ``*/*.json`` entry glob used by ``__len__`` and ``clear``.
        """
        target_dir = self.root / "quarantine"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / f"{path.name}.corrupt")
            self.quarantined += 1
            self._count("quarantined")
        except OSError:
            self._discard(path)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"result_cache.{name}").inc()

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
