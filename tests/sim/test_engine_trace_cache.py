"""Engine + trace cache: once-per-sweep builds, identical results at any jobs."""

import pickle

from repro.oo7.config import TINY
from repro.sim import spec as spec_module
from repro.sim.engine import run_experiment_batch
from repro.sim.simulator import Simulation, SimulationConfig
from repro.sim.spec import (
    ExperimentSpec,
    PolicySpec,
    WorkloadSpec,
    build_policy,
    build_selection,
    build_workload,
)
from repro.storage.heap import StoreConfig
from repro.workload.trace_cache import TraceCache

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)
SIM = SimulationConfig(store=TINY_STORE, preamble_collections=0)


def specs(rates=(40, 80, 160)):
    return [
        ExperimentSpec(
            policy=PolicySpec("fixed", {"overwrites_per_collection": rate}),
            workload=WorkloadSpec("oo7", {"config": TINY}),
            sim=SIM,
            label=f"tc@{rate}",
        )
        for rate in rates
    ]


def summaries(aggregates):
    return [s for agg in aggregates for s in agg.summaries]


def direct(seeds):
    """Each cell simulated straight from its generator: no engine, no cache."""
    out = []
    for spec in specs():
        for seed in seeds:
            sim = Simulation(
                policy=build_policy(spec.policy, seed),
                selection=build_selection(spec.selection, seed),
                config=spec.sim,
            )
            out.append(sim.run(build_workload(spec.workload, seed)).summary)
    return out


def test_trace_cache_results_identical_serial(tmp_path):
    reference = direct([0, 1])
    cache = TraceCache(tmp_path)
    cached = run_experiment_batch(specs(), seeds=[0, 1], jobs=1, trace_cache=cache)
    assert summaries(cached) == reference
    # 3 specs x 2 seeds share 2 unique traces: 2 builds, 4 memo/disk hits.
    assert cache.stats.builds == 2
    assert cache.stats.memo_hits + cache.stats.disk_hits == 4


def test_trace_cache_results_identical_parallel(tmp_path):
    reference = direct([0, 1])
    cache = TraceCache(tmp_path)
    parallel = run_experiment_batch(
        specs(), seeds=[0, 1], jobs=2, trace_cache=cache
    )
    assert summaries(parallel) == reference
    # The prewarm pass materialised every unique trace on disk.
    assert len(cache) == 2


def test_memo_only_trace_cache_identical(tmp_path):
    memo = run_experiment_batch(
        specs(), seeds=[0], jobs=1, trace_cache=TraceCache(None)
    )
    assert summaries(memo) == direct([0])


def test_no_trace_cache_builds_once_per_trace_and_writes_nothing(tmp_path, monkeypatch):
    """Without a trace cache the engine keeps a memo-only one: three cells
    over one (workload, seed) call the workload builder once, write no
    file, and summarise exactly as the disk-cache route does."""
    calls = []
    build_oo7 = spec_module._WORKLOAD_REGISTRY["oo7"]

    def counting(seed, **kwargs):
        calls.append(seed)
        return build_oo7(seed, **kwargs)

    monkeypatch.setitem(spec_module._WORKLOAD_REGISTRY, "oo7", counting)
    monkeypatch.chdir(tmp_path)
    memo_only = run_experiment_batch(specs(), seeds=[0], jobs=1)
    assert calls == [0]
    assert list(tmp_path.iterdir()) == []

    disk = run_experiment_batch(
        specs(), seeds=[0], jobs=1, trace_cache=TraceCache(tmp_path / "traces")
    )
    assert [pickle.dumps(s) for s in summaries(memo_only)] == [
        pickle.dumps(s) for s in summaries(disk)
    ]


def test_pooled_batch_over_a_warm_trace_cache_matches_serial(tmp_path):
    """Pool workers load warm traces from disk: the batch reports exactly
    what the in-process batch does, and builds nothing."""
    serial = run_experiment_batch(
        specs(), seeds=[0, 1], jobs=1, trace_cache=TraceCache(tmp_path)
    )
    entries = sorted(tmp_path.glob("*/*.trace"))
    stamps = [entry.stat().st_mtime_ns for entry in entries]
    pooled = run_experiment_batch(
        specs(), seeds=[0, 1], jobs=2, trace_cache=TraceCache(tmp_path)
    )
    assert [pickle.dumps(s) for s in summaries(pooled)] == [
        pickle.dumps(s) for s in summaries(serial)
    ]
    assert [(a.gc_io_fraction, a.garbage_fraction) for a in pooled] == [
        (a.gc_io_fraction, a.garbage_fraction) for a in serial
    ]
    assert sorted(tmp_path.glob("*/*.trace")) == entries
    assert [entry.stat().st_mtime_ns for entry in entries] == stamps


def test_trace_cache_as_path(tmp_path):
    reference = direct([0])
    from_path = run_experiment_batch(
        specs(), seeds=[0], jobs=1, trace_cache=str(tmp_path)
    )
    assert summaries(from_path) == reference
    assert len(TraceCache(tmp_path)) == 1


def test_result_cache_fingerprints_unchanged_by_trace_cache(tmp_path):
    """A result cached without the trace cache must hit with it enabled."""
    from repro.sim.cache import ResultCache

    result_cache = ResultCache(tmp_path / "results")
    first = run_experiment_batch(specs(), seeds=[0], jobs=1, cache=result_cache)

    outcomes = []
    again = run_experiment_batch(
        specs(),
        seeds=[0],
        jobs=1,
        cache=result_cache,
        trace_cache=TraceCache(tmp_path / "traces"),
        progress=outcomes.append,
    )
    assert summaries(again) == summaries(first)
    assert len(outcomes) == 3
    assert all(outcome.cached for outcome in outcomes)
