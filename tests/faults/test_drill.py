"""Crash–recover–continue drills: the tentpole acceptance tests.

Every drill asserts *byte identity*: the SHA-256 of the canonical committed
reachable state of the drilled (crashed + recovered + resumed) run must
equal the uncrashed reference run's.
"""

import pytest

from repro.experiments.drill_exp import DEFAULT_PLAN, drill_spec, format_drill, run_drill
from repro.faults.drill import run_crash_recovery_drill
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.telemetry import load_telemetry
from repro.sim.spec import ExperimentSpec, PolicySpec, WorkloadSpec
from repro.sim.simulator import SimulationConfig
from repro.storage.heap import StoreConfig

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


def tx_spec() -> ExperimentSpec:
    return ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": 60}),
        workload=WorkloadSpec("transactional", {}),
        sim=SimulationConfig(store=TINY_STORE, preamble_collections=0),
        label="drill",
    )


def plan_of(*faults: FaultSpec) -> FaultPlan:
    return FaultPlan(faults=tuple(faults))


def test_single_commit_crash_recovers_byte_identical():
    plan = plan_of(FaultSpec(site="tx.commit", at=30))
    report = run_crash_recovery_drill(tx_spec(), seed=0, plan=plan)
    assert report.crashes == 1
    assert [r.site for r in report.recoveries] == ["tx.commit"]
    assert report.recoveries[0].recovered_objects > 0
    assert report.matches_reference


def test_mid_collection_crash_recovers_byte_identical():
    plan = plan_of(FaultSpec(site="gc.collect", at=1))
    report = run_crash_recovery_drill(tx_spec(), seed=0, plan=plan)
    assert [r.site for r in report.recoveries] == ["gc.collect"]
    assert report.matches_reference


def test_multi_site_crash_sequence():
    plan = plan_of(
        FaultSpec(site="tx.commit", at=20),
        FaultSpec(site="tx.begin", at=40),
        FaultSpec(site="tx.commit", at=70),
    )
    report = run_crash_recovery_drill(tx_spec(), seed=0, plan=plan)
    assert [r.site for r in report.recoveries] == ["tx.commit", "tx.begin", "tx.commit"]
    assert len(report.recoveries) == 3
    assert report.matches_reference


def test_torn_writes_do_not_break_logical_recovery():
    plan = plan_of(
        FaultSpec(site="page.write", effect="torn-write", at=3),
        FaultSpec(site="tx.commit", at=50),
    )
    report = run_crash_recovery_drill(tx_spec(), seed=0, plan=plan)
    assert "torn-write" in {effect for _, _, effect in report.fired}
    assert report.matches_reference


def test_drill_is_reproducible():
    plan = plan_of(
        FaultSpec(site="tx.commit", at=25),
        FaultSpec(site="tx.begin", at=60),
    )
    first = run_crash_recovery_drill(tx_spec(), seed=3, plan=plan)
    second = run_crash_recovery_drill(tx_spec(), seed=3, plan=plan)
    assert first.fired == second.fired
    assert [r.resume_index for r in first.recoveries] == [
        r.resume_index for r in second.recoveries
    ]
    assert first.final_digest == second.final_digest


def test_drill_across_seeds():
    plan = plan_of(FaultSpec(site="tx.commit", at=45))
    for seed in range(4):
        report = run_crash_recovery_drill(tx_spec(), seed=seed, plan=plan)
        assert report.matches_reference, f"seed {seed} diverged"


def test_plan_is_required():
    with pytest.raises(ValueError):
        run_crash_recovery_drill(tx_spec(), seed=0)


def test_unbounded_crash_plan_hits_safety_valve():
    plan = plan_of(FaultSpec(site="tx.begin", at=1, repeat=True))
    with pytest.raises(RuntimeError):
        run_crash_recovery_drill(tx_spec(), seed=0, plan=plan, max_crashes=3)


def test_aborted_drill_still_writes_its_telemetry(tmp_path):
    """An owned telemetry file is written even when the drill aborts: the
    crashes it survived up to the safety valve are on record."""
    path = tmp_path / "drill.jsonl"
    plan = plan_of(FaultSpec(site="tx.begin", at=1, repeat=True))
    with pytest.raises(RuntimeError):
        run_crash_recovery_drill(
            tx_spec(), seed=0, plan=plan, max_crashes=3, telemetry=path
        )
    records = load_telemetry(path)
    names = [r.get("name") for r in records if r["type"] == "event"]
    assert names.count("recovered") == 3
    assert names.count("crash") == 4
    assert "drill_complete" not in names


def test_drill_telemetry_records_the_timeline(tmp_path):
    path = tmp_path / "drill.jsonl"
    plan = plan_of(
        FaultSpec(site="tx.commit", at=20),
        FaultSpec(site="tx.begin", at=40),
        FaultSpec(site="tx.commit", at=70),
    )
    report = run_crash_recovery_drill(tx_spec(), seed=0, plan=plan, telemetry=path)
    assert report.matches_reference
    records = load_telemetry(path)
    assert records[0]["kind"] == "drill"
    names = [r.get("name") for r in records if r["type"] == "event"]
    assert names.count("crash") == report.crashes == 3
    assert names.count("recovered") == 3
    assert names.count("drill_complete") == 1
    metrics = next(r for r in records if r["type"] == "metrics")
    assert metrics["counters"]["drill.recoveries"] == 3
    assert metrics["gauges"]["drill.crashes"] == 3


# ------------------------------------------------------------- demo driver


def test_default_drill_experiment_all_match():
    result = run_drill(seeds=[0, 1])
    assert result.all_match
    # The default plan exercises all three crash layers.
    sites = {r.site for report in result.reports.values() for r in report.recoveries}
    assert {"tx.commit", "tx.begin", "gc.collect"} <= sites


def test_drill_report_format():
    result = run_drill(seeds=[0])
    text = format_drill(result)
    assert "IDENTICAL" in text
    assert "byte-identical" in text


def test_default_plan_includes_torn_write():
    effects = {f.effect for f in DEFAULT_PLAN.faults}
    assert "torn-write" in effects
    assert drill_spec().workload.kind == "transactional"
