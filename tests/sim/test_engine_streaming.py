"""Cold engine cells stream: a trace-cache miss is replayed while the
helper interpreter is still cutting it, and then cached.

A serial engine run resolves its trace with ``TraceCache.resolve``; on a
miss the simulation replays the chunks as they arrive and the engine
commits the assembled trace once the run has succeeded. None of that may
show in a result: summaries are pickle-equal to replaying the compiled
trace, and the cached bytes are ``compile_trace``'s.
"""

import contextlib
import io
import os
import pickle
import time
from dataclasses import dataclass

import pytest

from repro.events import stream_events
from repro.faults.injector import FaultInjector, SimulatedCrash
from repro.faults.plan import FaultPlan, FaultSpec
from repro.oo7.config import SMALL_PRIME, TINY
from repro.sim import batch, engine
from repro.sim.engine import run_experiment
from repro.sim.simulator import Simulation, SimulationConfig
from repro.sim.spec import (
    ExperimentSpec,
    PolicySpec,
    WorkloadSpec,
    build_policy,
    build_selection,
    build_workload,
    register_workload,
)
from repro.storage.heap import StoreConfig
from repro.workload import chunks, stream_helper
from repro.workload.application import Oo7Application
from repro.workload.compiled import compile_trace
from repro.workload.tenants import make_profile, tenant_mix
from repro.workload.trace_cache import StreamedTrace, TraceCache, trace_fingerprint

from presets import build_preset

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)
SIM = SimulationConfig(store=TINY_STORE, preamble_collections=0)

WORKLOADS = {
    "oo7": WorkloadSpec("oo7", {"config": TINY}),
    "grammar": WorkloadSpec("grammar", {"config": make_profile("oltp-churn")}),
    "tenant-mix": WorkloadSpec(
        "tenant-mix", {"config": tenant_mix(["oltp-churn", "bulk-load"], scale=0.5)}
    ),
}
POLICIES = {
    "saio": PolicySpec("saio", {"io_fraction": 0.10}),
    "saga": PolicySpec("saga", {"garbage_fraction": 0.10, "estimator": "fgs-hb"}),
    "fixed": PolicySpec("fixed", {"overwrites_per_collection": 50.0}),
}
SEEDS = (0, 1, 2)

register_workload("preset", build_preset)

needs_helper = pytest.mark.skipif(
    not stream_helper._spare_core(), reason="the helper needs a second CPU"
)


@pytest.fixture
def short_chunks(monkeypatch):
    """Chunks short enough that every TINY trace is cut several times."""
    monkeypatch.setattr(chunks, "CHUNK_EVENTS", 300)


def _spec(workload="oo7", policy="fixed", **fields):
    fields.setdefault("sim", SIM)
    return ExperimentSpec(policy=POLICIES[policy], workload=WORKLOADS[workload], **fields)


def _saved(trace):
    buffer = io.BytesIO()
    trace.save(buffer)
    return buffer.getvalue()


def _reference(spec, seed, trace=None):
    """``Simulation.run`` over the compiled trace: what every route must equal."""
    sim = Simulation(
        policy=build_policy(spec.policy, seed),
        selection=build_selection(spec.selection, seed),
        config=spec.sim,
    )
    if trace is None:
        trace = compile_trace(build_workload(spec.workload, seed))
    return pickle.dumps(sim.run(trace).summary)


def _cached_bytes(cache, workload, seed):
    path = cache.entry_path(trace_fingerprint(workload, seed))
    return path.read_bytes() if path is not None else None


def _pool_is_idle():
    mine = [h for h in stream_helper._HELPERS if h.owner == os.getpid()]
    return bool(mine) and all(h.idle for h in mine)


def _warm_helper():
    """Leave an idle helper in the pool, so no timing below pays its start."""
    streamed = TraceCache(None).resolve(WORKLOADS["oo7"], 0)
    with contextlib.closing(streamed):
        for _ in streamed:
            pass


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_streamed_cell_equals_the_compiled_trace_run(tmp_path, short_chunks, workload):
    traces = {seed: compile_trace(build_workload(WORKLOADS[workload], seed)) for seed in SEEDS}
    for policy in sorted(POLICIES):
        spec = _spec(workload, policy)
        cache = TraceCache(tmp_path / policy)
        aggregate = run_experiment(spec, seeds=SEEDS, jobs=1, trace_cache=cache)
        assert not aggregate.failures
        got = [pickle.dumps(summary) for summary in aggregate.summaries]
        assert got == [_reference(spec, seed, traces[seed]) for seed in SEEDS], policy
        # Each seed was one streamed build, each committed byte for byte.
        assert (cache.stats.builds, cache.stats.streamed) == (len(SEEDS), len(SEEDS))
        for seed in SEEDS:
            assert _cached_bytes(cache, spec.workload, seed) == _saved(traces[seed])


def test_a_committed_trace_serves_the_next_cell_from_the_memo(tmp_path):
    cache = TraceCache(tmp_path)
    first = run_experiment(_spec(policy="saio"), seeds=[0], jobs=1, trace_cache=cache)
    second = run_experiment(_spec(policy="saga"), seeds=[0], jobs=1, trace_cache=cache)
    assert not first.failures and not second.failures
    assert (cache.stats.streamed, cache.stats.memo_hits) == (1, 1)
    assert pickle.dumps(second.summaries[0]) == _reference(_spec(policy="saga"), 0)


@pytest.mark.parametrize(
    "workload",
    [
        WorkloadSpec("transactional", {"initial_clusters": 8}),
        WorkloadSpec("preset", {"name": "garbage-burst", "scale": 0.05}),
    ],
    ids=lambda workload: workload.kind,
)
def test_transactional_and_preset_cells_stream(tmp_path, short_chunks, workload):
    """The synthetic generators have a step form too: a cold cell streams."""
    spec = ExperimentSpec(policy=POLICIES["fixed"], workload=workload, sim=SIM)
    cache = TraceCache(tmp_path)
    aggregate = run_experiment(spec, seeds=[0], jobs=1, trace_cache=cache)
    assert not aggregate.failures
    assert (cache.stats.builds, cache.stats.streamed) == (1, 1)
    assert pickle.dumps(aggregate.summaries[0]) == _reference(spec, 0)
    expected = _saved(compile_trace(build_workload(workload, 0)))
    assert _cached_bytes(cache, workload, 0) == expected


# ----------------------------------------------------------------------
# Where the chunks were cut
# ----------------------------------------------------------------------


@needs_helper
def test_the_helper_cuts_a_cold_cell(tmp_path):
    cache = TraceCache(tmp_path)
    run_experiment(_spec(), seeds=[0], jobs=1, trace_cache=cache)
    stats = cache.stats
    assert (stats.streamed, stats.streamed_by_helper, stats.stream_fallbacks) == (1, 1, 0)
    assert stats.stream_wait_s > 0
    assert _pool_is_idle()


@needs_helper
def test_a_helper_killed_after_the_first_chunk_hands_over_inline(tmp_path, monkeypatch):
    """SMALL_PRIME: its frames overflow the pipe, so the helper is still
    cutting when it dies and the rest of the trace must be cut inline."""
    spec = ExperimentSpec(
        policy=POLICIES["fixed"], workload=WorkloadSpec("oo7", {"config": SMALL_PRIME})
    )
    killed = []
    serve = stream_helper.ChunkFeed.__next__

    def killing(feed):
        item = serve(feed)
        if feed._helper is not None and not killed:
            killed.append(feed._helper.process.pid)
            feed._helper.process.kill()
            feed._helper.process.wait(timeout=10)
        return item

    monkeypatch.setattr(stream_helper.ChunkFeed, "__next__", killing)
    cache = TraceCache(tmp_path)
    aggregate = run_experiment(spec, seeds=[0], jobs=1, trace_cache=cache)
    monkeypatch.undo()
    assert killed and not aggregate.failures
    assert (cache.stats.streamed_by_helper, cache.stats.stream_fallbacks) == (1, 1)
    trace = compile_trace(build_workload(spec.workload, 0))
    assert pickle.dumps(aggregate.summaries[0]) == _reference(spec, 0, trace)
    assert _cached_bytes(cache, spec.workload, 0) == _saved(trace)


def test_one_cpu_cuts_inline(tmp_path, short_chunks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cache = TraceCache(tmp_path)
    aggregate = run_experiment(_spec("grammar"), seeds=[1], jobs=1, trace_cache=cache)
    assert (cache.stats.streamed, cache.stats.streamed_by_helper) == (1, 0)
    assert pickle.dumps(aggregate.summaries[0]) == _reference(_spec("grammar"), 1)


def test_a_pool_never_streams(tmp_path, monkeypatch):
    """Pool workers keep whole-trace resolution: a memo-only cache makes
    each worker build, and a worker that tried to stream would fail its
    run (``resolve`` raises in the forked workers too)."""

    def refuse(self, workload, seed):
        raise AssertionError("a pool worker streamed")

    specs = [_spec(policy=name) for name in sorted(POLICIES)]
    monkeypatch.setattr(TraceCache, "resolve", refuse)
    pooled = engine.run_experiment_batch(specs, seeds=[0, 1], jobs=2, trace_cache=TraceCache(None))
    assert not any(aggregate.failures for aggregate in pooled)
    # The worker's own entry point, run in this process.
    monkeypatch.setattr(engine, "_WORKER_TRACE_CACHE", TraceCache(None))
    engine._worker_simulate(specs[0], 0, False, None)
    assert engine._WORKER_TRACE_CACHE.stats.builds == 1
    monkeypatch.undo()
    for spec, aggregate in zip(specs, pooled):
        assert [pickle.dumps(s) for s in aggregate.summaries] == [
            _reference(spec, seed) for seed in (0, 1)
        ]


# ----------------------------------------------------------------------
# Runs that fail cache nothing and leave the helper idle
# ----------------------------------------------------------------------


@dataclass
class _FailingApplication:
    """TINY OO7 whose generator raises after ``fail_at`` steps. Module-level
    so the helper interpreter can unpickle it."""

    seed: int
    fail_at: int

    def canonical_material(self):
        return {"workload": "failing-oo7", "fail_at": self.fail_at, "seed": self.seed}

    def events(self):
        return stream_events(self.steps)

    def steps(self, out):
        for step, _ in enumerate(Oo7Application(TINY, seed=self.seed).steps(out)):
            if step == self.fail_at:
                raise RuntimeError("generator failed mid-stream")
            yield


register_workload("failing-oo7", _FailingApplication)


def _replayed_chunks(monkeypatch):
    """The feed of each chunk a streamed run replays, one entry per chunk."""
    seen = []
    replay = StreamedTrace.__iter__

    def counting(streamed):
        for item in replay(streamed):
            seen.append(streamed.feed)
            yield item

    monkeypatch.setattr(StreamedTrace, "__iter__", counting)
    return seen


@needs_helper
def test_a_generator_failing_mid_stream_caches_nothing(tmp_path, short_chunks, monkeypatch):
    seen = _replayed_chunks(monkeypatch)
    spec = ExperimentSpec(
        policy=POLICIES["fixed"],
        workload=WorkloadSpec("failing-oo7", {"fail_at": 40}),
        sim=SIM,
    )
    cache = TraceCache(tmp_path)
    aggregate = run_experiment(spec, seeds=[0], jobs=1, trace_cache=cache)
    assert "generator failed mid-stream" in aggregate.failures[0].error
    assert seen, "the run failed before it replayed a chunk"
    assert (seen[0].host, seen[0].fallbacks) == ("helper", 0)  # raised in the helper
    assert (len(cache), cache.stats.builds, cache.stats.streamed) == (0, 0, 0)
    assert _pool_is_idle()


@needs_helper
def test_a_run_timing_out_mid_stream_caches_nothing(tmp_path, short_chunks, monkeypatch):
    _warm_helper()
    seen = _replayed_chunks(monkeypatch)
    serve = stream_helper.ChunkFeed.__next__

    def slow(feed):
        item = serve(feed)
        time.sleep(1.0 if seen else 0.0)  # the second chunk comes late
        return item

    monkeypatch.setattr(stream_helper.ChunkFeed, "__next__", slow)
    # The guarded loop checks the deadline at every event.
    spec = _spec(sim=SimulationConfig(store=TINY_STORE, replay="scalar"))
    cache = TraceCache(tmp_path)
    aggregate = run_experiment(spec, seeds=[0], jobs=1, run_timeout=0.5, trace_cache=cache)
    assert "RunTimeoutError" in aggregate.failures[0].error
    assert len(seen) == 2  # timed out on the first event of the second chunk
    assert (len(cache), cache.stats.builds, cache.stats.streamed) == (0, 0, 0)
    assert _pool_is_idle()


def test_a_fault_injected_stream_replays_guarded_and_crashes_where_the_whole_trace_does(
    short_chunks, monkeypatch
):
    spec = _spec(faults=FaultPlan(faults=(FaultSpec(site="gc.collect", at=3),), seed=1))
    routes = []

    def recording(name):
        run = getattr(batch, name)

        def recorded(*args):
            routes.append(name)
            return run(*args)

        return recorded

    for name in ("_replay_fast", "_replay_guarded"):
        monkeypatch.setattr(batch, name, recording(name))

    def crash(trace):
        sim = Simulation(
            policy=build_policy(spec.policy, 0),
            selection=build_selection(spec.selection, 0),
            config=spec.sim,
            faults=FaultInjector(spec.faults),
        )
        with pytest.raises(SimulatedCrash) as raised:
            sim.run(trace)
        return raised.value.event_index, raised.value.resume_index

    whole = crash(compile_trace(build_workload(spec.workload, 0)))
    del routes[:]
    cache = TraceCache(None)
    streamed = cache.resolve(spec.workload, 0)
    assert isinstance(streamed, StreamedTrace)
    assert crash(streamed) == whole
    assert len(routes) > 1 and set(routes) == {"_replay_guarded"}
    assert streamed.feed._helper is None and streamed.feed.trace is None
    with pytest.raises(RuntimeError):
        streamed.commit()
    assert (len(cache._memo), cache.stats.builds) == (0, 0)
