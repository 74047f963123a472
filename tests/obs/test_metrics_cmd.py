"""The ``repro metrics`` subcommand: report shape, JSON mode, exit codes."""

import json

import pytest

from obs_helpers import make_tiny_spec
from repro.cli import main as cli_main
from repro.obs.report import aggregate, digest_file, main as metrics_main
from repro.obs.telemetry import RunTelemetry


@pytest.fixture(scope="module")
def telemetry_dir(tmp_path_factory):
    from repro.sim.engine import run_experiment

    root = tmp_path_factory.mktemp("metrics_cmd")
    run_experiment(make_tiny_spec(), seeds=[1, 2], jobs=1, telemetry=root)
    return root


def test_missing_path_exits_2(tmp_path, capsys):
    assert metrics_main([str(tmp_path / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_no_readable_files_exits_1(tmp_path, capsys):
    (tmp_path / "garbage.jsonl").write_text("not json\n")
    assert metrics_main([str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "skipping garbage.jsonl" in captured.err
    assert "no readable telemetry files" in captured.err


def test_pretty_report_lists_every_file(telemetry_dir, capsys):
    assert metrics_main([str(telemetry_dir)]) == 0
    out = capsys.readouterr().out
    assert "engine_000.jsonl" in out
    assert "run_000_obs-tiny_s1.jsonl" in out
    assert "run_001_obs-tiny_s2.jsonl" in out
    assert "gc timeline:" in out
    assert "telemetry file(s)" in out


def test_json_mode_emits_aggregate_document(telemetry_dir, capsys):
    assert metrics_main([str(telemetry_dir), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["files"] == 3
    assert doc["runs"] == 2
    assert doc["collections"] > 0
    assert set(doc["kinds"]) == {"engine", "run"}


def test_single_file_argument(telemetry_dir, capsys):
    run_file = sorted(telemetry_dir.glob("run_*.jsonl"))[0]
    assert metrics_main([str(run_file)]) == 0
    assert run_file.name in capsys.readouterr().out


def test_cli_routes_metrics_subcommand(telemetry_dir, capsys):
    assert cli_main(["metrics", str(telemetry_dir)]) == 0
    assert "telemetry file(s)" in capsys.readouterr().out


def test_digest_captures_estimator_error(tmp_path):
    tel = RunTelemetry(tmp_path / "t.jsonl", kind="run", label="x", seed=0)
    tel.record(
        "collection",
        number=1,
        reclaimed_bytes=100,
        gc_reads=2,
        gc_writes=3,
        estimator_error=-0.25,
        event_index=10,
    )
    tel.record(
        "collection",
        number=2,
        reclaimed_bytes=50,
        gc_reads=1,
        gc_writes=1,
        estimator_error=0.75,
        event_index=20,
    )
    digest = digest_file(tel.close())
    assert digest.reclaimed_bytes == 150
    assert digest.gc_io == 7
    assert digest.mean_abs_estimator_error == pytest.approx(0.5)
    agg = aggregate([digest])
    assert agg["mean_abs_estimator_error"] == pytest.approx(0.5)


def test_parallel_run_reports_speculation(tmp_path, capsys):
    """Under ``collection="parallel"`` the ``gc.parallel.*`` gauges carry the
    scheduler's counters plus its window, and the report shows them as
    traces per collection and a hit rate."""
    import dataclasses

    from repro.sim.engine import run_experiment

    spec = make_tiny_spec()
    spec = dataclasses.replace(
        spec, sim=dataclasses.replace(spec.sim, collection="parallel")
    )
    run_experiment(spec, seeds=[1], jobs=1, telemetry=tmp_path)
    (run_file,) = tmp_path.glob("run_*.jsonl")
    gauges = digest_file(run_file).metrics["gauges"]
    traces = gauges["gc.parallel.speculative_traces"]
    assert traces > 0
    assert 0 <= gauges["gc.parallel.wasted_traces"] < traces
    assert gauges["gc.parallel.window"] > 0
    assert metrics_main([str(run_file)]) == 0
    out = capsys.readouterr().out
    assert "speculation:" in out
    assert "traces/collection" in out and "hit rate" in out
