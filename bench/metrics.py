"""The benchmark's metric tables — the code-side twin of ``BENCHMARK.json``.

``bench/tests/test_harness.py`` asserts the two agree. ``exact`` marks a
metric that is a pure function of the inputs (a count or a simulated
quantity): it must read exactly the same on every run of one commit with
one seed, so ``compare.py --exact`` treats any difference as a failure.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end: allowed worsening as a share of the parent's median.
    bound: float = 0.0
    exact: bool = False


#: What a user of the system sees. Every window timing carries the
#: contract's widest bound: over ten seeds on the 2-core reference box their
#: quartile spreads were 5-12 % after speed scaling (README, "Reference
#: result"), and a bound should be about three spreads wide.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("events_per_s", "1/s", "higher", 0.25),
    Metric("pause_p50_ms", "ms", "lower", 0.25),
    Metric("pause_p95_ms", "ms", "lower", 0.25),
    Metric("stall_ms_per_kevent", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("gc_io_pct", "%", "lower", 0.20, exact=True),
    Metric("space_amp", "ratio", "lower", 0.10, exact=True),
)

_S, _LOW, _HIGH = "s", "lower", "higher"

PER_LAYER = (
    # workload (+oo7): generators, compiled traces, trace cache, streams
    Metric("workload.self_s", _S, _LOW),
    Metric("workload.build_s", _S, _LOW),
    Metric("workload.build_events_per_s", "1/s", _HIGH),
    Metric("workload.compile_s", _S, _LOW),
    Metric("workload.compile_events_per_s", "1/s", _HIGH),
    Metric("workload.save_s", _S, _LOW),
    Metric("workload.load_s", _S, _LOW),
    Metric("workload.trace_bytes_per_event", "B", _LOW, exact=True),
    Metric("workload.trace_cache_hit_rate", "ratio", _HIGH, exact=True),
    Metric("workload.run_len1_frac", "ratio", _LOW, exact=True),
    Metric("workload.stream_gen_s", _S, _LOW),
    Metric("workload.stream_events_per_s", "1/s", _HIGH),
    # sim: replay interpreters, engine, result cache
    Metric("sim.self_s", _S, _LOW),
    Metric("sim.replay_s", _S, _LOW),
    Metric("sim.replay_ns_per_event", "ns", _LOW),
    Metric("sim.scalar_ns_per_event", "ns", _LOW),
    Metric("sim.batched_speedup", "ratio", _HIGH),
    Metric("sim.engine_overhead_s", _S, _LOW),
    Metric("sim.cache_warm_ms", "ms", _LOW),
    Metric("sim.cache_hit_rate", "ratio", _HIGH, exact=True),
    # storage: the simulated time/space trade (counts)
    Metric("storage.self_s", _S, _LOW),
    Metric("storage.app_io", "count", _LOW, exact=True),
    Metric("storage.gc_io", "count", _LOW, exact=True),
    Metric("storage.gc_io_pct", "%", _LOW, exact=True),
    Metric("storage.garbage_pct_mean", "%", _LOW, exact=True),
    Metric("storage.buffer_hit_rate", "ratio", _HIGH, exact=True),
    Metric("storage.final_db_bytes", "B", _LOW, exact=True),
    Metric("storage.partitions", "count", _LOW, exact=True),
    Metric("storage.bytes_per_live_byte", "ratio", _LOW, exact=True),
    # gc: collector speed, then collector yield (separate columns)
    Metric("gc.self_s", _S, _LOW),
    Metric("gc.collect_s", _S, _LOW),
    Metric("gc.collections", "count", _LOW, exact=True),
    Metric("gc.collections_per_s", "1/s", _HIGH),
    Metric("gc.pause_p90_ms", "ms", _LOW),
    Metric("gc.pause_p99_ms", "ms", _LOW),
    Metric("gc.pause_max_ms", "ms", _LOW),
    Metric("gc.prepare_s", _S, _LOW),
    Metric("gc.apply_s", _S, _LOW),
    Metric("gc.select_s", _S, _LOW),
    Metric("gc.pump_s", _S, _LOW),
    Metric("gc.traced_objects_per_collection", "count", _LOW, exact=True),
    Metric("gc.traced_vs_heap", "ratio", _LOW, exact=True),
    Metric("gc.reclaimed_bytes_per_gc_io", "B", _HIGH, exact=True),
    Metric("gc.reclaimed_bytes_per_traced_object", "B", _HIGH, exact=True),
    Metric("gc.reclaimed_frac_of_generated", "ratio", _HIGH, exact=True),
    Metric("gc.spec_hit_rate", "ratio", _HIGH),
    Metric("gc.spec_stale", "count", _LOW),
    Metric("gc.spec_traces_per_collection", "ratio", _LOW),
    # core: rate policies and estimators
    Metric("core.self_s", _S, _LOW),
    Metric("core.policy_s", _S, _LOW),
    Metric("core.estimator_s", _S, _LOW),
    Metric("core.saio_achieved_pct", "%", _LOW, exact=True),
    Metric("core.saga_achieved_pct", "%", _LOW, exact=True),
    Metric("core.goal_error_pp", "pp", _LOW, exact=True),
    # tx: transactions, WAL, redo log, checkpoints, recovery
    Metric("tx.self_s", _S, _LOW),
    Metric("tx.apply_s", _S, _LOW),
    Metric("tx.wal_appends", "count", _LOW, exact=True),
    Metric("tx.wal_forces", "count", _LOW, exact=True),
    Metric("tx.wal_pages_written", "count", _LOW, exact=True),
    Metric("tx.wal_bytes_per_event", "B", _LOW, exact=True),
    Metric("tx.log_records_per_event", "ratio", _LOW, exact=True),
    Metric("tx.ckpt_count", "count", _LOW, exact=True),
    Metric("tx.ckpt_s", _S, _LOW),
    Metric("tx.ckpt_stall_p50_ms", "ms", _LOW),
    Metric("tx.ckpt_stall_max_ms", "ms", _LOW),
    Metric("tx.ckpt_ms_per_mb_heap", "ms/MB", _LOW),
    Metric("tx.recover_s", _S, _LOW),
    # service: the loop, admission control
    Metric("service.self_s", _S, _LOW),
    Metric("service.loop_s", _S, _LOW),
    Metric("service.shed_frac", "ratio", _LOW, exact=True),
    Metric("service.forced_collections", "count", _LOW, exact=True),
    Metric("service.backpressure_engaged", "count", _LOW, exact=True),
    Metric("service.heap_peak_bytes", "B", _LOW, exact=True),
    # obs: telemetry cost (end-to-end runs have it off)
    Metric("obs.telemetry_overhead_frac", "ratio", _LOW),
    Metric("obs.telemetry_bytes_per_event", "B", _LOW),
    # bench: what the harness itself costs and fails to attribute
    Metric("bench.trace_overhead_frac", "ratio", _LOW),
    Metric("bench.residual_frac", "ratio", _LOW),
    Metric("bench.traced_wall_s", _S, _LOW),
    Metric("bench.speed_factor", "ratio", _LOW),
)

LAYERS = ("workload", "sim", "storage", "gc", "core", "tx", "service")
