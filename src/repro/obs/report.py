"""Pretty-printing and aggregation of telemetry files: ``repro metrics``.

``python -m repro metrics <dir-or-file>`` reads every telemetry ``.jsonl``
file produced by a ``--telemetry`` run, prints one block per file (meta,
span wall times, GC-timeline digest, headline metrics) and an aggregate
footer across all files. ``--json`` emits the aggregate as machine-readable
JSON instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.obs.telemetry import (
    TelemetryError,
    iter_telemetry_files,
    load_telemetry,
)


@dataclass
class FileDigest:
    """Everything the report needs from one telemetry file."""

    path: Path
    kind: str
    label: str
    seed: Optional[int]
    spans: List[dict] = field(default_factory=list)
    collections: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    metrics: Optional[dict] = None
    summary: Optional[dict] = None

    @property
    def reclaimed_bytes(self) -> int:
        return sum(int(c.get("reclaimed_bytes", 0)) for c in self.collections)

    @property
    def gc_io(self) -> int:
        return sum(
            int(c.get("gc_reads", 0)) + int(c.get("gc_writes", 0))
            for c in self.collections
        )

    @property
    def mean_abs_estimator_error(self) -> Optional[float]:
        errors = [
            abs(float(c["estimator_error"]))
            for c in self.collections
            if c.get("estimator_error") is not None
        ]
        if not errors:
            return None
        return sum(errors) / len(errors)

    @property
    def checkpoint_stalls_ms(self) -> List[float]:
        """Wall time of each service checkpoint window that recorded one."""
        return [
            float(e["stall_ms"])
            for e in self.events
            if e.get("name") == "checkpoint" and "stall_ms" in e
        ]


def digest_file(path: Path) -> FileDigest:
    """Load and bucket one telemetry file's records."""
    records = load_telemetry(path)
    meta = records[0]
    digest = FileDigest(
        path=path,
        kind=str(meta.get("kind", "run")),
        label=str(meta.get("label", "")),
        seed=meta.get("seed"),
    )
    for record in records[1:]:
        kind = record.get("type")
        if kind == "span":
            digest.spans.append(record)
        elif kind == "collection":
            digest.collections.append(record)
        elif kind == "event":
            digest.events.append(record)
        elif kind == "metrics":
            digest.metrics = record
        elif kind == "summary":
            digest.summary = record
    return digest


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------


def _p50_max(values_ms: Sequence[float]) -> str:
    return f"p50 {statistics.median(values_ms):.3f} ms, max {max(values_ms):.3f} ms"


def _format_spans(digest: FileDigest, limit: int = 8) -> str:
    spans = sorted(digest.spans, key=lambda s: -float(s.get("wall_s", 0.0)))
    parts = [
        f"{span.get('name')} {float(span.get('wall_s', 0.0)):.3f}s"
        for span in spans[:limit]
    ]
    if len(spans) > limit:
        parts.append(f"... {len(spans) - limit} more")
    return ", ".join(parts) if parts else "(none)"


def format_file_digest(digest: FileDigest) -> str:
    """One human-readable block per telemetry file."""
    head = f"{digest.path.name}  [{digest.kind}"
    if digest.label:
        head += f" {digest.label!r}"
    if digest.seed is not None:
        head += f" seed={digest.seed}"
    head += "]"
    lines = [head]
    lines.append(f"  spans: {_format_spans(digest)}")
    if digest.collections:
        first = digest.collections[0]
        last = digest.collections[-1]
        line = (
            f"  gc timeline: {len(digest.collections)} collections, "
            f"{digest.reclaimed_bytes:,} bytes reclaimed, "
            f"{digest.gc_io:,} GC I/Os "
            f"(events {first.get('event_index')}..{last.get('event_index')})"
        )
        error = digest.mean_abs_estimator_error
        if error is not None:
            line += f", mean |estimator error| {error:.4f}"
        lines.append(line)
        pauses = [float(c.get("wall_s", 0.0)) * 1e3 for c in digest.collections]
        lines.append(f"  gc pauses: {_p50_max(pauses)}")
    stalls = digest.checkpoint_stalls_ms
    if stalls:
        lines.append(f"  checkpoints: {len(stalls)}, stall {_p50_max(stalls)}")
    gauges = (digest.metrics or {}).get("gauges", {})
    seen = gauges.get("service.events_seen")
    if seen:
        fused = gauges.get("service.events_fused", 0)
        lines.append(
            f"  service: {int(seen):,} events, {int(fused):,} "
            f"({fused / seen:.1%}) served by the fused kernels"
        )
    par = {
        name.removeprefix("gc.parallel."): value
        for name, value in gauges.items()
        if name.startswith("gc.parallel.")
    }
    if par:
        hits = par["speculation_hits"]
        collected = (hits + par["speculation_stale"] + par["speculation_misses"]) or 1
        lines.append(
            f"  speculation: {int(par['pumps']):,} pumps, "
            f"{par['speculative_traces'] / collected:.2f} traces/collection "
            f"({int(par.get('wasted_traces', 0))} wasted), "
            f"hit rate {hits / collected:.1%}, window {par.get('window', 0):.3g}"
        )
    if digest.summary is not None:
        summary = digest.summary
        lines.append(
            "  summary: gc_io_fraction "
            f"{float(summary.get('gc_io_fraction', 0.0)):.4f}, "
            "garbage_fraction_mean "
            f"{float(summary.get('garbage_fraction_mean', 0.0)):.4f}, "
            f"{int(summary.get('events', 0)):,} events"
        )
    if digest.events:
        names: dict[str, int] = {}
        for event in digest.events:
            name = str(event.get("name", "event"))
            names[name] = names.get(name, 0) + 1
        rendered = ", ".join(f"{name}×{count}" for name, count in sorted(names.items()))
        lines.append(f"  events: {rendered}")
    if digest.metrics is not None:
        counters = digest.metrics.get("counters", {})
        if counters:
            shown = list(counters.items())[:6]
            rendered = ", ".join(f"{name}={value:g}" for name, value in shown)
            if len(counters) > len(shown):
                rendered += f", ... {len(counters) - len(shown)} more"
            lines.append(f"  counters: {rendered}")
    return "\n".join(lines)


def aggregate(digests: Sequence[FileDigest]) -> dict:
    """Aggregate telemetry digests into one JSON-compatible document."""
    runs = [d for d in digests if d.kind == "run"]
    collections = sum(len(d.collections) for d in digests)
    doc = {
        "files": len(digests),
        "runs": len(runs),
        "collections": collections,
        "reclaimed_bytes": sum(d.reclaimed_bytes for d in digests),
        "gc_io": sum(d.gc_io for d in digests),
        "kinds": sorted({d.kind for d in digests}),
    }
    gc_fractions = [
        float(d.summary["gc_io_fraction"])
        for d in runs
        if d.summary is not None and "gc_io_fraction" in d.summary
    ]
    if gc_fractions:
        doc["gc_io_fraction_mean"] = sum(gc_fractions) / len(gc_fractions)
    errors = [
        e
        for e in (d.mean_abs_estimator_error for d in digests)
        if e is not None
    ]
    if errors:
        doc["mean_abs_estimator_error"] = sum(errors) / len(errors)
    return doc


def format_report(digests: Sequence[FileDigest]) -> str:
    """The full ``repro metrics`` report over a telemetry directory."""
    if not digests:
        return "no telemetry files found"
    blocks = [format_file_digest(d) for d in digests]
    agg = aggregate(digests)
    footer = (
        f"{agg['files']} telemetry file(s), {agg['runs']} run(s), "
        f"{agg['collections']} collections, "
        f"{agg['reclaimed_bytes']:,} bytes reclaimed"
    )
    if "gc_io_fraction_mean" in agg:
        footer += f", mean gc_io_fraction {agg['gc_io_fraction_mean']:.4f}"
    return "\n\n".join(blocks + [footer])


# ----------------------------------------------------------------------
# CLI entry point: python -m repro metrics
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments metrics",
        description=(
            "Pretty-print and aggregate telemetry files written by "
            "--telemetry runs."
        ),
    )
    parser.add_argument(
        "path",
        type=Path,
        help="telemetry directory (or a single .jsonl file)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the aggregate document as JSON instead of text",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if not args.path.exists():
        print(f"error: {args.path} does not exist", file=sys.stderr)
        return 2
    digests = []
    for path in iter_telemetry_files(args.path):
        try:
            digests.append(digest_file(path))
        except TelemetryError as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
    if not digests:
        print(f"error: no readable telemetry files under {args.path}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(aggregate(digests), indent=2, sort_keys=True))
    else:
        print(format_report(digests))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(main())
