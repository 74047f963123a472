"""Performance benchmark harness: ``python -m repro bench``.

Tracks the engine's performance trajectory with a standard suite:

* ``figure1_cell`` — one Figure 1 cell end-to-end (build the OO7 trace,
  replay it under a fixed-rate policy): the representative experiment cost.
* ``traverse_replay`` — replay of a prebuilt compiled trace only (no
  build), the pure inner-loop throughput number in events/second under
  the default batched interpreter.
* ``batch_replay`` — guarded (``replay="scalar"``) vs fused (``batched``)
  interpreter on the same compiled trace: events/s per mode, speedup,
  opcode run-length histogram, and a pickle-equality assertion on the two
  summaries.
* ``collection_throughput`` — collector-only throughput (collections/s and
  traced objects per collection) of the remembered-set frontier.
* ``trace_compile_load`` — workload rebuild vs trace compile vs binary
  save/load, demonstrating the compiled-trace speedup, plus ``emit_s``: the
  engine's route, the generator writing straight into the trace columns.
* ``sweep_trace_cache`` — a small multi-spec sweep through the trace
  cache, reporting builds and hit rates.
* ``multi_tenant_replay`` — replay throughput (events/s) on an
  interleaved 4-tenant grammar trace, the fleet subsystem's
  representative cost.

Results land in ``BENCH_<date>.json`` (see ``--out``)::

    {
      "format": 1,
      "date": "2026-08-06",
      "scale": "standard",          # or "quick" (--quick, CI smoke)
      "python": "3.11.7",
      "results": {
        "traverse_replay": {"events_per_s": ..., "wall_s": ..., ...},
        ...
      }
    }

``--baseline BENCH_old.json --max-regression 0.30`` turns the run into a
gate: the process exits 1 when any gated throughput metric (events/s and
collections/s, see ``GATED_METRICS``) drops more than the threshold
against the baseline (CI compares against the number recorded in the
repo).

``--telemetry DIR`` additionally writes JSON-lines telemetry: one
``kind="bench"`` file per suite case (phase spans, per-collection GC
timelines for the simulating cases) plus a ``bench_suite.jsonl`` with the
headline numbers as gauges — inspect with ``python -m repro metrics DIR``.
The timed regions stay untelemetered, so the gated events/s numbers are
unaffected; the telemetered replay is one extra untimed run.

``--profile`` wraps the suite in cProfile and prints the hottest
functions; given together with ``--telemetry`` (and no explicit stats
file) the pstats dump lands in ``DIR/bench_profile.pstats``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

#: Schema version of the emitted JSON.
BENCH_FORMAT = 1

#: Metrics (dotted paths into ``results``) the regression gate compares.
GATED_METRICS = (
    "figure1_cell.events_per_s",
    "traverse_replay.events_per_s",
    "batch_replay.batched.events_per_s",
    "collection_throughput.remembered.collections_per_s",
    "parallel_collection.parallel.collections_per_s",
    "multi_tenant_replay.events_per_s",
    "learned_estimator.learned.events_per_s",
)


def _best_of(repeats: int, fn):
    """Run ``fn`` ``repeats`` times; return (best_seconds, last_result)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


def _bench_config(quick: bool):
    from repro.oo7.config import TINY
    from repro.experiments.common import DEFAULT_CONFIG

    return TINY if quick else DEFAULT_CONFIG


def _cell_spec(config, rate: float = 200.0, label: str = "bench"):
    from repro.experiments.common import SAGA_PREAMBLE, oo7_spec
    from repro.sim.spec import PolicySpec

    return oo7_spec(
        PolicySpec("fixed", {"overwrites_per_collection": rate}),
        config,
        SAGA_PREAMBLE,
        label=label,
    )


def _new_simulation(spec, seed: int, obs=None):
    from repro.sim.simulator import Simulation
    from repro.sim.spec import build_policy, build_selection

    return Simulation(
        policy=build_policy(spec.policy, seed),
        selection=build_selection(spec.selection, seed),
        config=spec.sim,
        obs=obs,
    )


def _telemetered_replay(telemetry, name: str, spec, events) -> None:
    """One extra, untimed, fully observed replay for ``--telemetry`` runs.

    Kept outside the timed regions so the gated events/s numbers never pay
    for observability.
    """
    from repro.obs.telemetry import RunTelemetry

    tel = RunTelemetry(
        Path(telemetry) / f"bench_{name}.jsonl", kind="bench", label=name, seed=0
    )
    sim = _new_simulation(spec, 0, obs=tel)
    with tel.span("replay", events=len(events)):
        sim.run(events)
    tel.close()


def bench_figure1_cell(quick: bool, repeats: int, telemetry=None) -> dict:
    """One Figure 1 cell end-to-end: trace build + policy replay.

    Build, replay and collection wall time are reported separately (the
    collector's ``collect`` calls are timed from inside the run), so a
    replay-only regression is visible even when collection cost dominates
    the end-to-end number.
    """
    from repro.sim.spec import build_workload

    spec = _cell_spec(_bench_config(quick))

    best_wall = float("inf")
    best = None
    events = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        events = list(build_workload(spec.workload, 0))
        build_s = time.perf_counter() - started
        sim = _new_simulation(spec, 0)
        collector = sim.collector
        inner = collector.collect
        gc_wall = 0.0

        def timed(pid):
            nonlocal gc_wall
            gc_started = time.perf_counter()
            result = inner(pid)
            gc_wall += time.perf_counter() - gc_started
            return result

        collector.collect = timed
        result = sim.run(events)
        wall = time.perf_counter() - started
        if wall < best_wall:
            best_wall = wall
            best = (result.summary.collections, build_s, gc_wall)
    collections, build_s, gc_wall = best
    replay_s = best_wall - build_s - gc_wall
    if telemetry is not None:
        _telemetered_replay(telemetry, "figure1_cell", spec, events)
    return {
        "wall_s": round(best_wall, 4),
        "build_s": round(build_s, 4),
        "replay_s": round(replay_s, 4),
        "gc_s": round(gc_wall, 4),
        "events": len(events),
        "collections": collections,
        "events_per_s": round(len(events) / best_wall, 1),
        "replay_events_per_s": round(len(events) / replay_s, 1)
        if replay_s > 0
        else float("inf"),
    }


def bench_traverse_replay(quick: bool, repeats: int, telemetry=None) -> dict:
    """Replay throughput over a prebuilt trace — the inner-loop number.

    The trace is built and compiled once outside the timed region, so the
    default ``replay="auto"`` drives the batched interpreter of
    :mod:`repro.sim.batch` — the configuration every experiment runner
    replays under. A sparse fixed rate keeps collection cost low so the
    per-event replay path dominates. (``batch_replay`` below reports the
    guarded interpreter on the same trace, with the speedup.)
    """
    from repro.sim.spec import build_workload
    from repro.workload.compiled import compile_trace

    spec = _cell_spec(_bench_config(quick), rate=800.0)
    events = list(build_workload(spec.workload, 0))
    trace = compile_trace(events)

    def replay():
        return _new_simulation(spec, 0).run(trace).summary.collections

    replay()  # untimed warmup: builds the per-trace batch column cache
    wall, collections = _best_of(repeats, replay)
    if telemetry is not None:
        _telemetered_replay(telemetry, "traverse_replay", spec, events)
    return {
        "wall_s": round(wall, 4),
        "events": len(events),
        "collections": collections,
        "events_per_s": round(len(events) / wall, 1),
    }


def bench_batch_replay(quick: bool, repeats: int, telemetry=None) -> dict:
    """Guarded vs fused interpreter on the same prebuilt compiled trace.

    Both legs replay the identical trace under the identical policy; the
    ``scalar`` leg (``replay="scalar"``) drives the guarded per-event loop
    over the store's real methods, the ``batched`` leg the fused kernels
    of :mod:`repro.sim.batch`. Summaries must stay pickle-equal — the
    speedup is never bought with a behaviour change. The opcode run-length
    histogram (power-of-two buckets) shows the trace's run structure.
    """
    import pickle
    from dataclasses import replace

    from repro.sim.spec import build_workload
    from repro.workload.compiled import compile_trace

    spec = _cell_spec(_bench_config(quick), rate=800.0)
    events = list(build_workload(spec.workload, 0))
    trace = compile_trace(events)

    ops = trace.ops
    histogram: dict[str, int] = {}
    n = len(ops)
    i = 0
    while i < n:
        op = ops[i]
        j = i + 1
        while j < n and ops[j] == op:
            j += 1
        length = j - i
        low = 1 << (length.bit_length() - 1)
        label = "1" if low == 1 else f"{low}-{2 * low - 1}"
        histogram[label] = histogram.get(label, 0) + 1
        i = j
    histogram = {
        label: histogram[label]
        for label in sorted(histogram, key=lambda k: int(k.split("-")[0]))
    }

    scalar_spec = replace(spec, sim=replace(spec.sim, replay="scalar"))

    def scalar():
        return _new_simulation(scalar_spec, 0).run(trace).summary

    def batched():  # replay="auto" over the compiled trace
        return _new_simulation(spec, 0).run(trace).summary

    batched()  # untimed warmup: builds the per-trace batch column cache
    scalar_wall, scalar_summary = _best_of(repeats, scalar)
    batched_wall, batched_summary = _best_of(repeats, batched)
    if telemetry is not None:
        _telemetered_replay(telemetry, "batch_replay", spec, events)
    return {
        "events": len(events),
        "collections": batched_summary.collections,
        "scalar": {
            "wall_s": round(scalar_wall, 4),
            "events_per_s": round(len(events) / scalar_wall, 1),
        },
        "batched": {
            "wall_s": round(batched_wall, 4),
            "events_per_s": round(len(events) / batched_wall, 1),
        },
        "speedup": round(scalar_wall / batched_wall, 2)
        if batched_wall > 0
        else float("inf"),
        "summaries_match": pickle.dumps(scalar_summary)
        == pickle.dumps(batched_summary),
        "run_length_histogram": histogram,
    }


def bench_collection_throughput(quick: bool, repeats: int, telemetry=None) -> dict:
    """Collector throughput — collections/second and traced objects per
    collection, separate from the events/s replay number.

    Replays a prebuilt Figure 1 cell trace, timing only the
    ``collector.collect`` calls (event replay and policy bookkeeping are
    excluded). Quick scale collects at a denser rate so even the tiny
    configuration produces enough collections for a stable number.
    """
    from repro.sim.spec import build_workload

    # Quick scale collects much more often: the tiny trace has few pointer
    # overwrites, and the gate needs enough collections for stable timing.
    spec = _cell_spec(_bench_config(quick), rate=10.0 if quick else 200.0)
    events = list(build_workload(spec.workload, 0))

    best_wall = float("inf")
    collector = None
    for _ in range(max(1, repeats)):
        sim = _new_simulation(spec, 0)
        inner = sim.collector.collect
        gc_wall = 0.0

        def timed(pid):
            nonlocal gc_wall
            started = time.perf_counter()
            result = inner(pid)
            gc_wall += time.perf_counter() - started
            return result

        sim.collector.collect = timed
        sim.run(events)
        if gc_wall < best_wall:
            best_wall = gc_wall
            collector = sim.collector
    collections = collector.collections_performed
    traced = collector.traced_objects_total
    heap = collector.heap_objects_total
    if telemetry is not None:
        _telemetered_replay(telemetry, "collection_throughput", spec, events)
    return {
        "events": len(events),
        # GATED_METRICS and the recorded baselines address the numbers
        # under this key.
        "remembered": {
            "collections": collections,
            "gc_wall_s": round(best_wall, 4),
            "collections_per_s": round(collections / best_wall, 1)
            if best_wall > 0
            else float("inf"),
            "traced_objects_per_collection": round(traced / collections, 1)
            if collections
            else 0.0,
            "traced_vs_heap": round(traced / heap, 4) if heap else 0.0,
        },
    }


def bench_trace_compile_load(quick: bool, repeats: int, telemetry=None) -> dict:
    """Workload rebuild vs compile vs binary save/load.

    ``rebuild_s`` + ``compile_s`` is the event-object route (generate a
    list, then encode it); ``emit_s`` is the route the engine takes — the
    generator writing straight into the trace columns.
    """
    from repro.sim.spec import build_workload
    from repro.workload.compiled import CompiledTrace, compile_trace

    spec = _cell_spec(_bench_config(quick))

    rebuild_s, events = _best_of(
        repeats, lambda: list(build_workload(spec.workload, 0))
    )
    compile_s, trace = _best_of(repeats, lambda: compile_trace(events))
    emit_s, emitted = _best_of(
        repeats, lambda: compile_trace(build_workload(spec.workload, 0))
    )
    assert len(emitted) == len(events)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.trace"
        save_s, _ = _best_of(repeats, lambda: trace.save(path))
        load_s, loaded = _best_of(repeats, lambda: CompiledTrace.load(path))
        file_bytes = path.stat().st_size
    assert len(loaded) == len(events)
    if telemetry is not None:
        from repro.obs.telemetry import RunTelemetry

        tel = RunTelemetry(
            Path(telemetry) / "bench_trace_compile_load.jsonl",
            kind="bench",
            label="trace_compile_load",
        )
        tel.tracer.record("rebuild", rebuild_s, events=len(events))
        tel.tracer.record("compile", compile_s)
        tel.tracer.record("emit", emit_s)
        tel.tracer.record("save", save_s)
        tel.tracer.record("load", load_s, file_bytes=file_bytes)
        tel.close()
    return {
        "events": len(events),
        "rebuild_s": round(rebuild_s, 4),
        "compile_s": round(compile_s, 4),
        "emit_s": round(emit_s, 4),
        "save_s": round(save_s, 4),
        "load_s": round(load_s, 4),
        "file_bytes": file_bytes,
        "load_speedup_vs_rebuild": round(rebuild_s / load_s, 1)
        if load_s > 0
        else float("inf"),
    }


def bench_sweep_trace_cache(quick: bool, repeats: int, telemetry=None) -> dict:
    """A small sweep through the trace cache: builds once, hits the rest."""
    from repro.sim.engine import run_experiment_batch
    from repro.workload.trace_cache import TraceCache

    config = _bench_config(quick)
    specs = [_cell_spec(config, rate=r, label=f"bench@{r:g}") for r in (100, 200, 400)]
    seeds = [0] if quick else [0, 1]

    with tempfile.TemporaryDirectory() as tmp:
        cache = TraceCache(tmp)

        def sweep():
            run_experiment_batch(specs, seeds=seeds, jobs=1, trace_cache=cache)
            return cache.stats

        wall, stats = _best_of(repeats, sweep)
        if telemetry is not None:
            # One extra, untimed sweep with engine telemetry on: exercises
            # the engine-level file plus one per-run file per cell.
            run_experiment_batch(
                specs, seeds=seeds, jobs=1, trace_cache=cache, telemetry=telemetry
            )
    return {
        "wall_s": round(wall, 4),
        "runs": len(specs) * len(seeds),
        "trace_builds": stats.builds,
        "trace_resolutions": stats.resolutions,
        "trace_hit_rate": round(stats.hit_rate, 4),
    }


def bench_multi_tenant_replay(quick: bool, repeats: int, telemetry=None) -> dict:
    """Replay throughput on an interleaved 4-tenant grammar trace.

    The fleet subsystem's representative cost: four bundled tenant
    profiles (OLTP churn, bulk load, read-mostly browse, hot-key skew)
    interleaved by :class:`~repro.workload.tenants.TenantMix` into one
    trace, generated once outside the timed region and replayed under a
    fixed-rate policy on the fleet store geometry.
    """
    from repro.fleet import _default_sim_config
    from repro.sim.simulator import Simulation
    from repro.sim.spec import PolicySpec, build_policy
    from repro.workload.tenants import TenantMix, tenant_mix

    scenario = tenant_mix(
        ["oltp-churn", "bulk-load", "read-browse", "hot-key-skew"],
        scale=0.5 if quick else 2.0,
    )
    events = list(TenantMix(scenario, seed=0).events())
    sim_config = _default_sim_config()
    policy_spec = PolicySpec("fixed", {"overwrites_per_collection": 40.0})

    def replay():
        sim = Simulation(policy=build_policy(policy_spec, 0), config=sim_config)
        return sim.run(events).summary.collections

    wall, collections = _best_of(repeats, replay)
    if telemetry is not None:
        from repro.obs.telemetry import RunTelemetry

        tel = RunTelemetry(
            Path(telemetry) / "bench_multi_tenant_replay.jsonl",
            kind="bench",
            label="multi_tenant_replay",
            seed=0,
        )
        sim = Simulation(
            policy=build_policy(policy_spec, 0), config=sim_config, obs=tel
        )
        with tel.span("replay", events=len(events), tenants=len(scenario.tenants)):
            sim.run(events)
        tel.close()
    return {
        "wall_s": round(wall, 4),
        "events": len(events),
        "tenants": len(scenario.tenants),
        "collections": collections,
        "events_per_s": round(len(events) / wall, 1),
    }


def bench_learned_estimator(quick: bool, repeats: int, telemetry=None) -> dict:
    """Learned-estimator serving overhead vs the hand-designed FGS/HB.

    Replays one interleaved tenant-mix trace under SAGA twice — once per
    estimator — timing the whole replay: the estimator's per-collection
    ``observe``/``estimate`` cost is the only difference between the legs.
    The model is fitted in-bench from an untimed, telemetered oracle
    teacher run (the full train pipeline), so the bench also tracks
    training wall time, reported untimed-and-ungated alongside.
    """
    from repro.fleet import _default_sim_config
    from repro.gc.learned import train_model
    from repro.obs.features import load_training_rows
    from repro.obs.telemetry import RunTelemetry
    from repro.sim.simulator import Simulation
    from repro.sim.spec import PolicySpec, build_policy
    from repro.workload.tenants import TenantMix, tenant_mix

    scenario = tenant_mix(
        ["oltp-churn", "read-browse"], scale=1.0 if quick else 3.0
    )
    events = list(TenantMix(scenario, seed=0).events())
    sim_config = _default_sim_config()

    def saga_policy(estimator: str) -> PolicySpec:
        return PolicySpec(
            "saga", {"garbage_fraction": 0.15, "estimator": estimator}
        )

    with tempfile.TemporaryDirectory() as tmp:
        # Untimed teacher run + training: oracle-labelled telemetry in,
        # content-hashed model artifact out.
        teacher_path = Path(tmp) / "teacher.jsonl"
        tel = RunTelemetry(teacher_path, kind="bench", label="teacher", seed=0)
        Simulation(
            policy=build_policy(saga_policy("oracle"), 0),
            config=sim_config,
            obs=tel,
        ).run(events)
        tel.close()
        train_started = time.perf_counter()
        matrix = load_training_rows([teacher_path])
        model, _report = train_model(matrix.rows, files=len(matrix.files))
        train_s = time.perf_counter() - train_started
        model_path = Path(tmp) / "model.json"
        model.save(model_path)
        learned_spec = f"learned:{model_path}@{model.sha256[:12]}"

        def replay(estimator: str):
            sim = Simulation(
                policy=build_policy(saga_policy(estimator), 0),
                config=sim_config,
            )
            return sim.run(events).summary.collections

        fgs_wall, fgs_collections = _best_of(
            repeats, lambda: replay("fgs-hb")
        )
        learned_wall, learned_collections = _best_of(
            repeats, lambda: replay(learned_spec)
        )
        if telemetry is not None:
            tel = RunTelemetry(
                Path(telemetry) / "bench_learned_estimator.jsonl",
                kind="bench",
                label="learned_estimator",
                seed=0,
            )
            sim = Simulation(
                policy=build_policy(saga_policy(learned_spec), 0),
                config=sim_config,
                obs=tel,
            )
            with tel.span("replay", events=len(events)):
                sim.run(events)
            tel.close()

    return {
        "events": len(events),
        "train_rows": model.trained_rows,
        "train_s": round(train_s, 4),
        "fgs_hb": {
            "wall_s": round(fgs_wall, 4),
            "collections": fgs_collections,
            "events_per_s": round(len(events) / fgs_wall, 1),
        },
        "learned": {
            "wall_s": round(learned_wall, 4),
            "collections": learned_collections,
            "events_per_s": round(len(events) / learned_wall, 1),
        },
        "overhead_vs_fgs_hb": round(learned_wall / fgs_wall, 3)
        if fgs_wall > 0
        else float("inf"),
    }


def bench_parallel_collection(quick: bool, repeats: int, telemetry=None) -> dict:
    """Collection pause under the parallel scheduler vs the serial collector.

    Replays one access-heavy, garbage-sparse synthetic cell — large live
    partitions (the survivor trace and relocation dominate each pause) with
    a short overwrite interval (little garbage accumulates per collection)
    — once per collection mode, timing only the stop-the-world window:
    ``collector.collect`` for serial, ``scheduler.collect`` for parallel.
    Everything the parallel scheduler hoists into the margin window
    (frontier snapshot, Cheney trace, compaction layout planning) leaves
    the pause; reclamation bookkeeping stays, by design. Asserts the two
    modes' summaries are pickle-equal, so the speedup is never bought with
    a behaviour change.

    The other side of the trade is reported next to it: each mode's whole
    replay ``wall_s`` / ``events_per_s`` over the compiled trace (both
    modes run the fused interpreter) and ``replay_slowdown`` = parallel
    wall / serial wall — what the speculative traces cost the replay
    thread outside the pause.
    """
    import pickle

    from repro.core.fixed import FixedRatePolicy
    from repro.gc.selection import RoundRobinSelection
    from repro.sim.simulator import Simulation, SimulationConfig
    from repro.storage.heap import StoreConfig
    from repro.workload.compiled import compile_trace
    from repro.workload.synthetic import SyntheticPhase, SyntheticWorkload

    workers = 4
    store = StoreConfig(page_size=2048, partition_pages=64, buffer_pages=8)
    phases = [
        SyntheticPhase(
            name="hot-read",
            operations=12_000 if quick else 30_000,
            create_weight=0.1,
            delete_weight=0.3,
            access_weight=6.0,
            cluster_size=4,
            object_size=128,
        )
    ]
    events = compile_trace(
        SyntheticWorkload(phases, seed=7, initial_clusters=4800).events()
    )

    def make_sim(collection: str, gc_workers: int, obs=None) -> Simulation:
        return Simulation(
            policy=FixedRatePolicy(20.0),
            selection=RoundRobinSelection(),
            config=SimulationConfig(
                store=store, collection=collection, gc_workers=gc_workers
            ),
            obs=obs,
        )

    def run_mode(collection: str, gc_workers: int):
        best_wall = float("inf")
        best_replay = float("inf")
        best = None
        for _ in range(max(1, repeats)):
            sim = make_sim(collection, gc_workers)
            target = sim._par if sim._par is not None else sim.collector
            inner = target.collect
            gc_wall = 0.0

            def timed(pid):
                nonlocal gc_wall
                started = time.perf_counter()
                result = inner(pid)
                gc_wall += time.perf_counter() - started
                return result

            target.collect = timed
            started = time.perf_counter()
            summary = sim.run(events).summary
            best_replay = min(best_replay, time.perf_counter() - started)
            if gc_wall < best_wall:
                best_wall = gc_wall
                best = (sim, summary)
        sim, summary = best
        payload = {
            "collections": sim.collector.collections_performed,
            "gc_wall_s": round(best_wall, 4),
            "collections_per_s": round(
                sim.collector.collections_performed / best_wall, 1
            )
            if best_wall > 0
            else float("inf"),
            "wall_s": round(best_replay, 4),
            "events_per_s": round(len(events) / best_replay, 1),
        }
        if sim._par is not None:
            payload.update(sim._par.stats())
        return payload, summary

    serial, serial_summary = run_mode("serial", 1)
    parallel, parallel_summary = run_mode("parallel", workers)
    if telemetry is not None:
        from repro.obs.telemetry import RunTelemetry

        tel = RunTelemetry(
            Path(telemetry) / "bench_parallel_collection.jsonl",
            kind="bench",
            label="parallel_collection",
            seed=7,
        )
        sim = make_sim("parallel", workers, obs=tel)
        with tel.span("replay", events=len(events)):
            sim.run(events)
        tel.close()
    return {
        "events": len(events),
        "gc_workers": workers,
        "serial": serial,
        "parallel": parallel,
        "pause_speedup": round(
            parallel["collections_per_s"] / serial["collections_per_s"], 2
        )
        if serial["collections_per_s"]
        else float("inf"),
        "replay_slowdown": round(parallel["wall_s"] / serial["wall_s"], 2),
        "summaries_match": pickle.dumps(serial_summary)
        == pickle.dumps(parallel_summary),
    }


#: The standard suite, in execution order.
SUITE = (
    ("figure1_cell", bench_figure1_cell),
    ("traverse_replay", bench_traverse_replay),
    ("batch_replay", bench_batch_replay),
    ("collection_throughput", bench_collection_throughput),
    ("parallel_collection", bench_parallel_collection),
    ("trace_compile_load", bench_trace_compile_load),
    ("sweep_trace_cache", bench_sweep_trace_cache),
    ("multi_tenant_replay", bench_multi_tenant_replay),
    ("learned_estimator", bench_learned_estimator),
)


def run_suite(quick: bool = False, repeats: int = 2, telemetry=None) -> dict:
    """Run every benchmark; return the BENCH_*.json document.

    ``telemetry`` names a directory: each suite case then writes a
    ``kind="bench"`` JSON-lines file, and a ``bench_suite.jsonl`` carries
    one span per case plus the headline numbers as gauges.
    """
    suite_tel = None
    if telemetry is not None:
        from repro.obs.telemetry import RunTelemetry

        suite_tel = RunTelemetry(
            Path(telemetry) / "bench_suite.jsonl",
            kind="bench",
            label="suite",
            scale="quick" if quick else "standard",
            repeats=repeats,
        )
    results = {}
    for name, fn in SUITE:
        print(f"[bench] {name} ...", file=sys.stderr)
        if suite_tel is not None:
            with suite_tel.span(name):
                results[name] = fn(quick, repeats, telemetry)
        else:
            results[name] = fn(quick, repeats)
    if suite_tel is not None:
        for name, payload in results.items():
            for key, value in payload.items():
                if isinstance(value, dict):
                    # Per-mode sub-results (collection_throughput).
                    for sub_key, sub_value in value.items():
                        if isinstance(sub_value, (int, float)) and sub_value != float("inf"):
                            suite_tel.metrics.gauge(
                                f"bench.{name}.{key}.{sub_key}"
                            ).set(sub_value)
                elif isinstance(value, (int, float)) and value != float("inf"):
                    suite_tel.metrics.gauge(f"bench.{name}.{key}").set(value)
        suite_tel.close()
    return {
        "format": BENCH_FORMAT,
        "date": datetime.date.today().isoformat(),
        "scale": "quick" if quick else "standard",
        "python": sys.version.split()[0],
        "results": results,
    }


def _metric(doc: dict, dotted: str) -> Optional[float]:
    node = doc.get("results", {})
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def check_regression(
    current: dict, baseline: dict, max_regression: float
) -> list[str]:
    """Gated-metric comparison; returns one message per violation.

    Scales must match — a quick run is never compared against a standard
    baseline (different workload sizes).
    """
    if current.get("scale") != baseline.get("scale"):
        return [
            f"baseline scale {baseline.get('scale')!r} does not match "
            f"current scale {current.get('scale')!r}; not comparable"
        ]
    problems = []
    for dotted in GATED_METRICS:
        new = _metric(current, dotted)
        old = _metric(baseline, dotted)
        if new is None or old is None or old <= 0:
            continue
        floor = old * (1.0 - max_regression)
        if new < floor:
            problems.append(
                f"{dotted}: {new:,.0f} is "
                f"{(1 - new / old) * 100:.1f}% below baseline {old:,.0f} "
                f"(allowed {max_regression * 100:.0f}%)"
            )
    return problems


def _format_report(doc: dict) -> str:
    lines = [f"benchmark suite ({doc['scale']}, python {doc['python']}, {doc['date']})"]
    r = doc["results"]
    cell = r["figure1_cell"]
    lines.append(
        f"  figure1_cell:       {cell['wall_s']:.3f}s "
        f"({cell['events_per_s']:,.0f} events/s incl. build; "
        f"build {cell['build_s']:.3f}s, replay {cell['replay_s']:.3f}s, "
        f"gc {cell['gc_s']:.3f}s)"
    )
    rep = r["traverse_replay"]
    lines.append(
        f"  traverse_replay:    {rep['wall_s']:.3f}s "
        f"({rep['events_per_s']:,.0f} events/s, {rep['collections']} collections)"
    )
    br = r["batch_replay"]
    lines.append(
        f"  batch_replay:       batched "
        f"{br['batched']['events_per_s']:,.0f} events/s vs scalar "
        f"{br['scalar']['events_per_s']:,.0f} events/s "
        f"({br['speedup']:g}x, summaries match: {br['summaries_match']})"
    )
    ct = r["collection_throughput"]
    lines.append(
        f"  collection_throughput: "
        f"{ct['remembered']['collections_per_s']:,.0f} coll/s "
        f"({ct['remembered']['traced_objects_per_collection']:,.0f} traced "
        f"objs/collection)"
    )
    pc = r["parallel_collection"]
    lines.append(
        f"  parallel_collection: parallel "
        f"{pc['parallel']['collections_per_s']:,.0f} coll/s vs serial "
        f"{pc['serial']['collections_per_s']:,.0f} coll/s "
        f"({pc['pause_speedup']:g}x pause speedup at "
        f"{pc['gc_workers']} workers, "
        f"{pc['parallel']['speculation_hits']}/"
        f"{pc['parallel']['collections']} speculation hits, "
        f"replay {pc['parallel']['events_per_s']:,.0f} vs "
        f"{pc['serial']['events_per_s']:,.0f} events/s = "
        f"{pc['replay_slowdown']:g}x slowdown, "
        f"summaries match: {pc['summaries_match']})"
    )
    tcl = r["trace_compile_load"]
    lines.append(
        f"  trace_compile_load: rebuild {tcl['rebuild_s']:.3f}s, "
        f"compile {tcl['compile_s']:.3f}s, emit {tcl['emit_s']:.3f}s, "
        f"load {tcl['load_s']:.4f}s "
        f"({tcl['load_speedup_vs_rebuild']:g}x faster than rebuild, "
        f"{tcl['file_bytes']:,} bytes)"
    )
    swp = r["sweep_trace_cache"]
    lines.append(
        f"  sweep_trace_cache:  {swp['wall_s']:.3f}s for {swp['runs']} runs, "
        f"{swp['trace_builds']} trace builds, "
        f"hit rate {swp['trace_hit_rate'] * 100:.0f}%"
    )
    mtr = r["multi_tenant_replay"]
    lines.append(
        f"  multi_tenant_replay: {mtr['wall_s']:.3f}s "
        f"({mtr['events_per_s']:,.0f} events/s, {mtr['tenants']} tenants, "
        f"{mtr['collections']} collections)"
    )
    le = r["learned_estimator"]
    lines.append(
        f"  learned_estimator:  learned "
        f"{le['learned']['events_per_s']:,.0f} events/s vs fgs-hb "
        f"{le['fgs_hb']['events_per_s']:,.0f} events/s "
        f"({le['overhead_vs_fgs_hb']:g}x wall; trained on "
        f"{le['train_rows']} rows in {le['train_s']:.3f}s)"
    )
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments bench",
        description="Run the standard performance suite and write BENCH_<date>.json.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny OO7 configuration — seconds, not minutes (CI smoke)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats per benchmark, best-of (default: 2, quick: 1)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: results/BENCH_<date>.json)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="BENCH.JSON",
        help="compare events/s against this earlier BENCH_*.json",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        metavar="FRACTION",
        help="allowed events/s drop vs baseline before exiting 1 (default 0.30)",
    )
    parser.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "write JSON-lines telemetry per suite case into DIR (untimed "
            "extra runs; the gated numbers are unaffected); inspect with "
            "'python -m repro metrics DIR'"
        ),
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="",
        default=None,
        metavar="STATS_FILE",
        help=(
            "profile the suite with cProfile; dump pstats to STATS_FILE, or "
            "to DIR/bench_profile.pstats when --telemetry DIR is also given"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 2)

    if args.profile is not None:
        from repro.cli import _profiled

        stats_file = args.profile
        if not stats_file and args.telemetry is not None:
            args.telemetry.mkdir(parents=True, exist_ok=True)
            stats_file = str(args.telemetry / "bench_profile.pstats")
        doc = _profiled(
            lambda: run_suite(
                quick=args.quick, repeats=repeats, telemetry=args.telemetry
            ),
            stats_file,
        )
    else:
        doc = run_suite(quick=args.quick, repeats=repeats, telemetry=args.telemetry)

    out = args.out
    if out is None:
        out = Path("results") / f"BENCH_{doc['date']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    print(_format_report(doc))
    print(f"[written to {out}]", file=sys.stderr)
    if args.telemetry is not None:
        print(
            f"[telemetry in {args.telemetry}; inspect with "
            f"'python -m repro metrics {args.telemetry}']",
            file=sys.stderr,
        )

    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
        problems = check_regression(doc, baseline, args.max_regression)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(
            f"[no regression vs {args.baseline} at "
            f"{args.max_regression * 100:.0f}% threshold]",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(main())
