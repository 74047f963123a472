"""Per-run telemetry: a JSON-lines file of spans, metrics and GC timeline.

One :class:`RunTelemetry` instance observes one unit of work — a simulation
run, an engine batch, a bench case, or a crash-recovery drill — and writes
a single ``.jsonl`` file describing it. Every line is one JSON object with
a ``type`` field:

``meta``
    Always the first line: telemetry format version, what was observed
    (``kind``/``label``/``seed``) and free-form attributes.
``collection``
    One line per garbage collection — the **GC timeline**: partition
    chosen, bytes reclaimed/copied, survivor count, estimator error vs the
    oracle, next trigger interval, phase, event index and the overwrite
    clock. A single telemetry file is sufficient to replot Figures 4–8
    style curves (see EXPERIMENTS.md).
``span``
    A finished :class:`~repro.obs.spans.SpanRecord` (phase wall times).
``event``
    Free-form occurrences: engine outcomes, injected crashes, recoveries.
``metrics``
    The final :class:`~repro.obs.registry.MetricsRegistry` snapshot.
``summary``
    The run's :class:`~repro.sim.metrics.SimulationSummary` as a dict
    (last line when present).

Records buffer in memory and the file is written atomically (temp file +
rename) on :meth:`close`, so crash drills that destroy and rebuild the
simulated process mid-run still produce exactly one coherent file.

Determinism contract: telemetry only *observes*. It reads counters the
simulation already maintains, draws no random numbers, charges no I/O, and
is excluded from result-cache fingerprints — with telemetry on or off,
summaries are pickle-equal and fingerprints identical (property-tested in
``tests/obs/test_determinism.py``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.gc.collector import CollectionResult
    from repro.sim.metrics import CollectionRecord

#: Telemetry file format version; bump on breaking schema changes.
TELEMETRY_FORMAT = 1


def _slug(text: str) -> str:
    """File-name-safe rendering of a free-form label."""
    cleaned = "".join(c if c.isalnum() or c in "._-" else "-" for c in text)
    return cleaned.strip("-") or "run"


def run_telemetry_path(
    root: Union[str, Path], index: int, label: str, seed: int
) -> Path:
    """The canonical per-run telemetry file name inside a telemetry dir."""
    return Path(root) / f"run_{index:03d}_{_slug(label)}_s{seed}.jsonl"


class RunTelemetry:
    """Collects one unit of work's telemetry and writes it as JSON lines.

    Args:
        path: Destination ``.jsonl`` file (parent directories are created).
        kind: What is being observed: ``"run"``, ``"engine"``, ``"bench"``
            or ``"drill"``.
        label: Display label (the spec label, bench case name, ...).
        seed: The run seed, when the unit of work has one.
        **meta: Extra JSON-compatible attributes for the ``meta`` line.
    """

    def __init__(
        self,
        path: Union[str, Path],
        kind: str = "run",
        label: str = "",
        seed: Optional[int] = None,
        **meta: object,
    ) -> None:
        self.path = Path(path)
        self.kind = kind
        self.label = label
        self.seed = seed
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(sink=self._on_span)
        self.closed = False
        head: dict = {
            "type": "meta",
            "format": TELEMETRY_FORMAT,
            "kind": kind,
            "label": label,
        }
        if seed is not None:
            head["seed"] = seed
        if meta:
            head["attrs"] = meta
        self._records: List[dict] = [head]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, type_: str, **fields: object) -> None:
        """Append one free-form record line."""
        self._records.append({"type": type_, **fields})

    def event(self, name: str, **fields: object) -> None:
        """Append one ``event`` record (engine outcomes, crashes, ...)."""
        self._records.append({"type": "event", "name": name, **fields})

    def _on_span(self, span: SpanRecord) -> None:
        self._records.append({"type": "span", **span.as_dict()})

    def span(self, name: str, **attrs: object):
        """Shorthand for ``self.tracer.span(...)``."""
        return self.tracer.span(name, **attrs)

    # ------------------------------------------------------------------
    # Simulation hooks (called by repro.sim.simulator when attached)
    # ------------------------------------------------------------------

    def on_collection(
        self,
        result: "CollectionResult",
        record: "CollectionRecord",
        wall_s: float,
    ) -> None:
        """Emit one GC-timeline line and update the collection metrics."""
        error = record.estimator_error
        self._records.append(
            {
                "type": "collection",
                "number": record.number,
                "phase": record.phase,
                "event_index": record.event_index,
                "overwrite_clock": record.overwrite_clock,
                "partition": record.partition,
                "reclaimed_bytes": record.reclaimed_bytes,
                "reclaimed_objects": result.reclaimed_objects,
                "live_bytes": record.live_bytes,
                "survivors": result.live_objects,
                "gc_reads": result.gc_reads,
                "gc_writes": result.gc_writes,
                "interval_next": record.interval_next,
                "actual_garbage_fraction": record.actual_garbage_fraction,
                "estimated_garbage_fraction": record.estimated_garbage_fraction,
                "target_garbage_fraction": record.target_garbage_fraction,
                "estimator_error": error,
                "db_size": record.db_size,
                "pending_overwrites": record.pending_overwrites,
                "partition_count": record.partition_count,
                "wall_s": round(wall_s, 6),
            }
        )
        metrics = self.metrics
        metrics.counter("gc.collections").inc()
        metrics.counter("gc.reclaimed_bytes").inc(record.reclaimed_bytes)
        metrics.counter("gc.copied_bytes").inc(record.live_bytes)
        metrics.counter("gc.survivors").inc(result.live_objects)
        metrics.counter("gc.io").inc(result.gc_io)
        metrics.histogram("gc.reclaimed_bytes_per_collection").observe(
            record.reclaimed_bytes
        )
        if error is not None:
            metrics.histogram("gc.estimator_abs_error").observe(abs(error))

    def on_run_end(self, sim: object, result: object) -> None:
        """Snapshot the run's stats objects into the registry + summary.

        ``sim`` is a :class:`~repro.sim.simulator.Simulation`; ``result``
        its :class:`~repro.sim.simulator.SimulationResult`. Typed as
        ``object`` to keep this module import-cycle-free.
        """
        import dataclasses

        metrics = self.metrics
        store = getattr(sim, "store", None)
        if store is not None:
            metrics.set_many(store.iostats.as_metrics(), prefix="io.")
            metrics.set_many(store.buffer.stats.as_metrics(), prefix="buffer.")
            metrics.gauge("sim.pointer_overwrites").set(store.pointer_overwrites)
            metrics.gauge("sim.db_size").set(store.db_size)
            metrics.gauge("sim.partitions").set(store.partition_count)
        tx = getattr(sim, "tx", None)
        wal = getattr(tx, "wal", None)
        if wal is not None:
            metrics.set_many(wal.stats.as_metrics(), prefix="wal.")
        redo_log = getattr(sim, "redo_log", None)
        if redo_log is not None:
            metrics.gauge("redo.records").set(redo_log.length)
        sampler = getattr(sim, "sampler", None)
        if sampler is not None:
            metrics.gauge("sim.events").set(sampler.event_index)
        summary = getattr(result, "summary", None)
        if summary is not None:
            self._records.append(
                {"type": "summary", **dataclasses.asdict(summary)}
            )

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def close(self) -> Path:
        """Write the telemetry file atomically; idempotent."""
        if self.closed:
            return self.path
        self.closed = True
        snapshot = self.metrics.snapshot()
        # Keep `summary` the last line (spans finishing after on_run_end —
        # e.g. the enclosing "simulate" span — would otherwise trail it).
        tail = [r for r in self._records if r.get("type") == "summary"]
        if tail:
            self._records = [
                r for r in self._records if r.get("type") != "summary"
            ]
        if any(snapshot.values()):
            self._records.append({"type": "metrics", **snapshot})
        self._records.extend(tail)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        blob = "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in self._records
        )
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(blob)
        os.replace(tmp, self.path)
        return self.path


# ----------------------------------------------------------------------
# Reading telemetry back
# ----------------------------------------------------------------------


class TelemetryError(Exception):
    """A telemetry file could not be parsed."""


def load_telemetry(path: Union[str, Path]) -> List[dict]:
    """Parse one telemetry file into its list of records.

    Raises:
        TelemetryError: on malformed JSON lines or a missing/alien header.
    """
    path = Path(path)
    records = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
        if not isinstance(record, dict) or "type" not in record:
            raise TelemetryError(f"{path}:{lineno}: not a telemetry record")
        records.append(record)
    if not records or records[0].get("type") != "meta":
        raise TelemetryError(f"{path}: missing leading 'meta' record")
    if records[0].get("format") != TELEMETRY_FORMAT:
        raise TelemetryError(
            f"{path}: telemetry format {records[0].get('format')!r} "
            f"(this reader understands {TELEMETRY_FORMAT})"
        )
    return records


def iter_telemetry_files(root: Union[str, Path]) -> Iterator[Path]:
    """Yield every ``.jsonl`` file under a telemetry dir, sorted by name."""
    root = Path(root)
    if root.is_file():
        yield root
        return
    yield from sorted(root.glob("*.jsonl"))
