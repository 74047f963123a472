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
