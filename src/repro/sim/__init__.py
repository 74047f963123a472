"""Trace-driven simulation: engine, metrics, multi-seed runs, reports.

The paper's multi-seed protocol runs through
:func:`~repro.sim.engine.run_experiment` /
:func:`~repro.sim.engine.run_experiment_batch`: declarative
:class:`~repro.sim.spec.ExperimentSpec` values, with multi-process fan-out
(:class:`~repro.sim.engine.ParallelRunner`) and on-disk memoisation
(:class:`~repro.sim.cache.ResultCache`).
"""
