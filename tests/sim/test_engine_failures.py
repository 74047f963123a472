"""Failure tolerance of the experiment engine.

The acceptance bar (ISSUE): a batch containing an always-crashing run
completes with partial results and the failures recorded in
RunStats/AggregateResult — the batch never dies.
"""

import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.oo7.config import TINY
from repro.sim import engine as engine_module
from repro.sim.engine import (
    ParallelRunner,
    RunFailure,
    RunTimeoutError,
    run_experiment,
    run_experiment_batch,
)
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import ExperimentSpec, PolicySpec, WorkloadSpec
from repro.storage.heap import StoreConfig

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)
SIM = SimulationConfig(store=TINY_STORE, preamble_collections=0)

#: Crashes the very first I/O write of every run: always fatal.
ALWAYS_CRASH = FaultPlan(faults=(FaultSpec(site="io.write", at=1),))


def tiny_spec(rate=50, label="", faults=None):
    return ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": rate}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=SIM,
        label=label,
        faults=faults,
    )


# ------------------------------------------------------- partial results


def test_batch_with_always_crashing_spec_completes_with_partial_results():
    good = tiny_spec(label="good")
    bad = tiny_spec(label="bad", faults=ALWAYS_CRASH)
    outcomes = []
    results = run_experiment_batch(
        [good, bad], seeds=[0, 1], jobs=1, progress=outcomes.append
    )
    good_agg, bad_agg = results
    assert good_agg.runs == 2 and good_agg.stats.failures == 0
    assert bad_agg.runs == 0 and bad_agg.stats.failures == 2
    assert len(bad_agg.failures) == 2
    failure = bad_agg.failures[0]
    assert isinstance(failure, RunFailure)
    assert failure.label == "bad" and failure.seed == 0
    assert "SimulatedCrash" in failure.error
    assert failure.attempts == 1
    # Progress saw every run settle, failed ones flagged.
    assert len(outcomes) == 4
    assert sum(1 for o in outcomes if o.failed) == 2


def test_pooled_batch_with_failures_matches_serial():
    good = tiny_spec(label="good")
    bad = tiny_spec(label="bad", faults=ALWAYS_CRASH)
    serial = run_experiment_batch([good, bad], seeds=[0, 1], jobs=1)
    pooled = run_experiment_batch([good, bad], seeds=[0, 1], jobs=2)
    assert [a.summaries for a in serial] == [a.summaries for a in pooled]
    assert [a.failures for a in serial] == [a.failures for a in pooled]


def test_failed_runs_excluded_from_aggregates_and_records():
    bad = tiny_spec(label="bad", faults=ALWAYS_CRASH)
    aggregate = run_experiment(bad, seeds=[0, 1, 2], jobs=1, keep_records=True)
    assert aggregate.summaries == []
    assert aggregate.records == []
    assert aggregate.garbage_fraction.mean == 0.0  # empty-safe stats


# ----------------------------------------------------------------- retries


def test_permanent_failure_counts_attempts():
    bad = tiny_spec(label="bad", faults=ALWAYS_CRASH)
    aggregate = run_experiment(
        bad, seeds=[0], jobs=1, retries=2, retry_backoff=0.0
    )
    assert aggregate.stats.failures == 1
    assert aggregate.failures[0].attempts == 3  # 1 + 2 retries
    assert aggregate.stats.retries == 2


def test_transient_failure_retries_to_success(monkeypatch):
    real_simulate = engine_module._simulate
    calls = {"n": 0}

    def flaky(spec, seed, keep_records, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError("transient")
        return real_simulate(spec, seed, keep_records, **kwargs)

    monkeypatch.setattr(engine_module, "_simulate", flaky)
    aggregate = run_experiment(
        tiny_spec(), seeds=[0], jobs=1, retries=1, retry_backoff=0.0
    )
    assert calls["n"] == 2
    assert aggregate.runs == 1 and aggregate.stats.failures == 0
    assert aggregate.stats.retries == 1


def test_negative_retries_rejected():
    with pytest.raises(ValueError):
        ParallelRunner(retries=-1)
    with pytest.raises(ValueError):
        ParallelRunner(run_timeout=0)


# ----------------------------------------------------------------- timeout


def test_run_timeout_quarantines_slow_runs():
    aggregate = run_experiment(
        tiny_spec(label="slow"), seeds=[0], jobs=1, run_timeout=1e-4
    )
    assert aggregate.stats.failures == 1
    assert "RunTimeoutError" in aggregate.failures[0].error


def test_generous_timeout_does_not_fire():
    aggregate = run_experiment(tiny_spec(), seeds=[0], jobs=1, run_timeout=120.0)
    assert aggregate.runs == 1 and aggregate.stats.failures == 0


# ------------------------------------------------- broken pool degradation


def test_broken_pool_falls_back_to_serial(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    def broken(self, *args, **kwargs):
        raise BrokenProcessPool("worker died")

    monkeypatch.setattr(ParallelRunner, "_run_pooled", broken)
    results = run_experiment_batch(
        [tiny_spec(rate) for rate in (40, 60)], seeds=[0, 1], jobs=4
    )
    assert all(a.runs == 2 and a.stats.failures == 0 for a in results)


# --------------------------------------------------------- fault plumbing


def test_runner_level_faults_compose_onto_specs():
    aggregate = run_experiment(tiny_spec(), seeds=[0], jobs=1, faults=ALWAYS_CRASH)
    assert aggregate.stats.failures == 1


def test_spec_level_faults_take_precedence():
    benign = FaultPlan(faults=(FaultSpec(site="io.read", at=10**9),))
    aggregate = run_experiment(
        tiny_spec(faults=benign), seeds=[0], jobs=1, faults=ALWAYS_CRASH
    )
    assert aggregate.stats.failures == 0  # spec's own (benign) plan won


def test_faulty_and_fault_free_runs_never_share_cache_entries(tmp_path):
    cache_dir = tmp_path / "cache"
    clean = run_experiment(tiny_spec(), seeds=[0], jobs=1, cache=cache_dir)
    assert clean.stats.cache_misses == 1
    # Same spec with faults: must not hit the fault-free entry.
    faulty = run_experiment(
        tiny_spec(faults=ALWAYS_CRASH), seeds=[0], jobs=1, cache=cache_dir
    )
    assert faulty.stats.cache_hits == 0 and faulty.stats.failures == 1
    # And the fault-free entry still answers.
    warm = run_experiment(tiny_spec(), seeds=[0], jobs=1, cache=cache_dir)
    assert warm.stats.cache_hits == 1


# ------------------------------------------------------------- reentrancy


def test_run_batch_is_reentrant_from_progress_callback():
    """Nested run_batch on the same runner must not corrupt outer counters."""
    runner = ParallelRunner(jobs=1)
    outer_outcomes = []
    nested_outcomes = []

    def reenter(outcome):
        outer_outcomes.append(outcome)
        if len(outer_outcomes) == 1:
            # Re-enter the same runner mid-batch with a different progress.
            inner = ParallelRunner(jobs=1, progress=nested_outcomes.append)
            inner.progress = nested_outcomes.append
            runner.progress, saved = nested_outcomes.append, runner.progress
            try:
                runner.run(tiny_spec(rate=99), seeds=[7, 8])
            finally:
                runner.progress = saved

    runner.progress = reenter
    runner.run(tiny_spec(), seeds=[0, 1, 2])

    assert [(o.completed, o.total) for o in outer_outcomes] == [(1, 3), (2, 3), (3, 3)]
    assert [(o.completed, o.total) for o in nested_outcomes] == [(1, 2), (2, 2)]


def test_run_batch_reentrant_counts_with_threads():
    import threading

    runner = ParallelRunner(jobs=1)
    results = {}

    def work(name, rate, seeds):
        outcomes = []
        saved_progress = outcomes.append
        local = ParallelRunner(jobs=1, progress=saved_progress)
        # Deliberately share ONE runner across threads via run_batch's
        # explicit progress-free path; totals come from the outcome stream.
        results[name] = (
            runner.run(tiny_spec(rate=rate), seeds=seeds),
            local.run(tiny_spec(rate=rate), seeds=seeds),
        )

    threads = [
        threading.Thread(target=work, args=("a", 40, [0, 1])),
        threading.Thread(target=work, args=("b", 70, [2, 3, 4])),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    shared_a, local_a = results["a"]
    shared_b, local_b = results["b"]
    assert shared_a.summaries == local_a.summaries
    assert shared_b.summaries == local_b.summaries
