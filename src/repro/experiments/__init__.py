"""Experiment drivers: one module per table/figure plus ablations.

Every driver exposes ``run_<name>()`` returning structured results and
``format_<name>()`` rendering them as terminal tables/plots; each is also
registered by name in :mod:`repro.experiments.registry`, which the CLI
(``python -m repro``) enumerates. The benchmark harness under
``benchmarks/`` wraps the drivers directly. Sim-based drivers take one
``options=`` :class:`~repro.sim.engine.RunOptions` (workers, caches,
progress, retries, faults, telemetry) and fan out through
:class:`repro.sim.engine.ParallelRunner`.
"""
