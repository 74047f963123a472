"""Observability layer: metrics registry, span tracing, run telemetry.

The substrate every future adaptive-policy and scaling PR reads from:

* :mod:`repro.obs.registry` — counters / gauges / histograms;
* :mod:`repro.obs.spans` — span-based wall-time tracing of run phases;
* :mod:`repro.obs.telemetry` — one JSON-lines telemetry file per run,
  including the per-collection GC timeline;
* :mod:`repro.obs.report` — the ``python -m repro metrics`` reader.

Attach points: ``Simulation(obs=...)`` and the engine's ``telemetry=``
option (``--telemetry DIR`` on the CLI).
Telemetry never changes simulation results — see the determinism contract
in :mod:`repro.obs.telemetry`.
"""

from repro.obs.features import FeatureMatrix, collection_rows, load_training_rows
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import SpanRecord, Tracer
from repro.obs.telemetry import (
    TELEMETRY_FORMAT,
    RunTelemetry,
    TelemetryError,
    iter_telemetry_files,
    load_telemetry,
    run_telemetry_path,
)

__all__ = [
    "Counter",
    "FeatureMatrix",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunTelemetry",
    "SpanRecord",
    "TELEMETRY_FORMAT",
    "TelemetryError",
    "Tracer",
    "collection_rows",
    "iter_telemetry_files",
    "load_telemetry",
    "load_training_rows",
    "run_telemetry_path",
]
