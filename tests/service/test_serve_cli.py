"""``python -m repro serve`` end-to-end, including the soak posture."""

import json

from repro.cli import main
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service.stream_helper import _spare_core


def _plan_file(tmp_path):
    plan = FaultPlan(
        faults=(
            FaultSpec(site="tx.commit", at=900),
            FaultSpec(site="io.write", at=4000),
            FaultSpec(site="gc.collect", at=4),
        ),
        seed=11,
    )
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    return path


def test_serve_bounded_run(capsys):
    rc = main([
        "serve", "--workload", "oltp-churn", "--policy", "fixed:200",
        "--max-events", "5000", "--checkpoint-every", "2000", "--seed", "5",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "stopped: max-events after 5000 events" in out
    assert "state digest:" in out
    assert "resume index: 5000" in out
    assert "fallbacks" in out.split("stream: host ")[1].splitlines()[0]


def test_serve_json_report(capsys):
    rc = main([
        "serve", "--workload", "read-browse", "--policy", "saga:0.3",
        "--max-events", "4000", "--json", "--seed", "2",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["events_seen"] == 4000
    assert payload["stopped"] == "max-events"
    assert len(payload["final_digest"]) == 64
    assert payload["stream_host"] == ("helper" if _spare_core() else "inline")
    assert payload["stream_fallbacks"] == 0 and payload["stream_wait_s"] >= 0


def test_serve_multi_tenant_with_backpressure(capsys):
    rc = main([
        "serve", "--tenants", "oltp-churn,read-browse", "--scale", "0.5",
        "--policy", "fixed:200", "--max-events", "8000",
        "--max-heap-bytes", "12000", "--backpressure", "shed",
        "--json", "--seed", "3",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["heap_peak_bytes"] <= 12_000
    assert payload["backpressure"]["engaged"] > 0


def test_soak_cli_round_trips_through_metrics(tmp_path, capsys):
    telemetry = tmp_path / "soak.jsonl"
    rc = main([
        "serve", "--workload", "oltp-churn", "--policy", "fixed:200",
        "--soak", "--faults", str(_plan_file(tmp_path)),
        "--max-events", "20000", "--checkpoint-every", "4000",
        "--telemetry", str(telemetry), "--seed", "5", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["crashes"] == 3
    assert payload["matches_reference"] is True
    assert payload["suffix_only"] is True

    # The telemetry written by the soak must round-trip through the
    # metrics CLI (the ISSUE's `repro metrics` acceptance check).
    rc = main(["metrics", str(telemetry)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "soak" in out
    assert "crash" in out


def test_soak_requires_faults_and_bounds(capsys):
    assert main(["serve", "--soak", "--max-events", "100"]) == 2
    assert "requires --faults" in capsys.readouterr().err
    assert main(["serve", "--soak", "--faults", "x.json"]) == 2
    assert "requires --max-events" in capsys.readouterr().err
