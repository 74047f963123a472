"""Crash-soak drills: byte-identity across repeated crash/recover cycles."""

import json
import os

import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.telemetry import load_telemetry
from repro.service.config import ServiceConfig
from repro.service.soak import run_soak_drill
from repro.service.stream import grammar_stream, tenant_stream
from repro.sim.spec import PolicySpec
from repro.workload.tenants import make_profile, tenant_mix

FIXED = PolicySpec("fixed", {"overwrites_per_collection": 200.0})
SAGA = PolicySpec("saga", {"garbage_fraction": 0.3})

#: Three crash sites spread across the event loop: a commit force, a raw
#: page write, and a collection — the plan used by the standard small soak.
PLAN = FaultPlan(
    faults=(
        FaultSpec(site="tx.commit", at=1500),
        FaultSpec(site="io.write", at=6000),
        FaultSpec(site="gc.collect", at=5),
    ),
    seed=3,
)


def _stream(seed=7):
    return grammar_stream(
        make_profile("oltp-churn"), seed=seed, max_live_clusters=64
    )


def test_soak_recovers_byte_identical():
    report = run_soak_drill(
        _stream(),
        FIXED,
        seed=7,
        service=ServiceConfig(max_events=20_000, checkpoint_every_events=4_000),
        plan=PLAN,
    )
    assert report.crashes == 3
    assert report.matches_reference
    assert report.suffix_only
    assert report.checkpoints >= 3
    assert report.final_segment is not None
    assert report.final_segment.next_index == 20_000
    assert {r.site for r in report.recoveries} == {f.site for f in PLAN.faults}


def test_post_checkpoint_recovery_replays_only_the_suffix():
    report = run_soak_drill(
        _stream(),
        FIXED,
        seed=7,
        service=ServiceConfig(max_events=20_000, checkpoint_every_events=4_000),
        plan=PLAN,
    )
    checkpointed = [r for r in report.recoveries if r.from_checkpoint]
    assert checkpointed, "at least one crash must land after a checkpoint"
    for recovery in checkpointed:
        assert recovery.records_replayed < recovery.log_appended_total
        assert recovery.checkpoint_event_index > 0
        assert recovery.resume_index >= recovery.checkpoint_event_index


def test_soak_over_multi_tenant_stream():
    stream = tenant_stream(
        tenant_mix(["oltp-churn", "read-browse"], scale=0.5),
        seed=11,
        max_live_clusters=64,
    )
    report = run_soak_drill(
        stream,
        SAGA,
        seed=11,
        service=ServiceConfig(max_events=15_000, checkpoint_every_events=3_000),
        plan=FaultPlan(
            # Thresholds sized to the stream: the buffer cache absorbs most
            # reads (~66 io.read hits over 15k events) and most writes go
            # through the WAL, not page write-back (~47 page.write hits).
            faults=(
                FaultSpec(site="io.read", at=40),
                FaultSpec(site="tx.begin", at=2000),
                FaultSpec(site="page.write", at=30),
            ),
            seed=5,
        ),
    )
    assert report.crashes == 3
    assert report.matches_reference
    assert report.suffix_only


def test_soak_with_repeating_probabilistic_crashes():
    report = run_soak_drill(
        _stream(seed=13),
        FIXED,
        seed=13,
        service=ServiceConfig(max_events=12_000, checkpoint_every_events=2_500),
        plan=FaultPlan(
            faults=(
                FaultSpec(site="tx.commit", probability=0.002, repeat=True),
            ),
            seed=29,
        ),
        max_crashes=64,
    )
    assert report.crashes >= 3
    assert report.matches_reference
    assert report.suffix_only


def test_soak_telemetry_records_the_timeline(tmp_path):
    path = tmp_path / "soak.jsonl"
    report = run_soak_drill(
        _stream(),
        FIXED,
        seed=7,
        service=ServiceConfig(max_events=20_000, checkpoint_every_events=4_000),
        plan=PLAN,
        telemetry=path,
    )
    assert report.matches_reference
    kinds = [json.loads(line).get("type") for line in path.read_text().splitlines()]
    names = [
        json.loads(line).get("name")
        for line in path.read_text().splitlines()
        if json.loads(line).get("type") == "event"
    ]
    assert "metrics" in kinds
    assert names.count("crash") == 3
    assert names.count("recovered") == 3
    assert "soak_complete" in names


def test_aborted_soak_still_writes_its_telemetry(tmp_path):
    path = tmp_path / "soak.jsonl"
    plan = FaultPlan(faults=(FaultSpec(site="tx.commit", at=500, repeat=True),))
    with pytest.raises(RuntimeError, match="max_crashes=2"):
        run_soak_drill(
            _stream(),
            FIXED,
            seed=7,
            service=ServiceConfig(max_events=20_000, checkpoint_every_events=4_000),
            plan=plan,
            max_crashes=2,
            telemetry=path,
        )
    records = load_telemetry(path)
    assert records[0]["kind"] == "soak"
    names = [r.get("name") for r in records if r["type"] == "event"]
    assert names.count("recovered") == 2
    assert "soak_complete" not in names


def test_soak_validation():
    with pytest.raises(ValueError, match="FaultPlan"):
        run_soak_drill(_stream(), FIXED)
    with pytest.raises(ValueError, match="max_events"):
        run_soak_drill(
            _stream(),
            FIXED,
            service=ServiceConfig(max_events=None),
            plan=PLAN,
        )
    with pytest.raises(ValueError, match="backpressure"):
        run_soak_drill(
            _stream(),
            FIXED,
            service=ServiceConfig(
                max_events=1000,
                max_heap_bytes=10_000,
                backpressure="shed",
            ),
            plan=PLAN,
        )


def test_unbounded_crash_plan_is_rejected():
    with pytest.raises(RuntimeError, match="max_crashes"):
        run_soak_drill(
            _stream(),
            FIXED,
            seed=7,
            service=ServiceConfig(max_events=8_000),
            plan=FaultPlan(
                faults=(FaultSpec(site="tx.commit", at=50, repeat=True),),
            ),
            max_crashes=4,
        )


@pytest.mark.skipif(
    not os.environ.get("REPRO_SOAK_1M"),
    reason="million-event soak: set REPRO_SOAK_1M=1 (takes ~2-4 min)",
)
def test_million_event_soak():
    """The acceptance-criteria soak: >=1M events, >=3 mid-stream crashes."""
    report = run_soak_drill(
        _stream(seed=1),
        FIXED,
        seed=1,
        service=ServiceConfig(
            max_events=1_000_000, checkpoint_every_events=100_000
        ),
        plan=FaultPlan(
            # ~0.31 io.writes per event: at=250k fires around event 800k.
            faults=(
                FaultSpec(site="tx.commit", at=150_000),
                FaultSpec(site="io.write", at=250_000),
                FaultSpec(site="gc.collect", at=400),
            ),
            seed=3,
        ),
    )
    assert report.crashes >= 3
    assert report.matches_reference
    assert report.suffix_only
    checkpointed = [r for r in report.recoveries if r.from_checkpoint]
    assert checkpointed
    for recovery in checkpointed:
        assert recovery.records_replayed < recovery.log_appended_total
