"""The bench harness: suite output shape, regression gate, CLI entry."""

import json

import pytest

from repro.bench import (
    BENCH_FORMAT,
    GATED_METRICS,
    check_regression,
    main as bench_main,
    run_suite,
)
from repro.cli import main as cli_main


@pytest.fixture(scope="module")
def quick_doc():
    return run_suite(quick=True, repeats=1)


def _set_metric(doc, metric, value):
    """Assign a (possibly nested) dotted gated metric in a bench document."""
    node = doc["results"]
    *path, leaf = metric.split(".")
    for part in path:
        node = node[part]
    node[leaf] = value


def test_suite_document_shape(quick_doc):
    assert quick_doc["format"] == BENCH_FORMAT
    assert quick_doc["scale"] == "quick"
    for name in (
        "figure1_cell",
        "traverse_replay",
        "collection_throughput",
        "trace_compile_load",
        "sweep_trace_cache",
        "multi_tenant_replay",
    ):
        assert name in quick_doc["results"], name
    assert quick_doc["results"]["figure1_cell"]["events_per_s"] > 0
    assert quick_doc["results"]["traverse_replay"]["events_per_s"] > 0
    assert quick_doc["results"]["trace_compile_load"]["load_s"] >= 0
    throughput = quick_doc["results"]["collection_throughput"]
    assert throughput["remembered"]["collections_per_s"] > 0
    assert set(throughput) == {"events", "remembered"}
    # Sweeping 3 specs over 1 seed shares one trace: a single build.
    assert quick_doc["results"]["sweep_trace_cache"]["trace_builds"] == 1
    replay = quick_doc["results"]["multi_tenant_replay"]
    assert replay["events_per_s"] > 0
    assert replay["tenants"] == 4
    assert replay["collections"] > 0


def test_compiled_load_beats_rebuild(quick_doc):
    tcl = quick_doc["results"]["trace_compile_load"]
    assert tcl["load_s"] < tcl["rebuild_s"]
    # The engine's route (generator straight into columns) is reported too.
    assert tcl["emit_s"] > 0


def test_parallel_collection_reports_both_sides_of_the_trade(quick_doc):
    pc = quick_doc["results"]["parallel_collection"]
    assert pc["summaries_match"] is True
    for mode in ("serial", "parallel"):
        assert pc[mode]["wall_s"] >= pc[mode]["gc_wall_s"] > 0
        assert pc[mode]["events_per_s"] > 0
    assert pc["replay_slowdown"] == pytest.approx(
        pc["parallel"]["wall_s"] / pc["serial"]["wall_s"], abs=0.006
    )


def test_regression_gate(quick_doc):
    # Identical runs never regress.
    assert check_regression(quick_doc, quick_doc, 0.30) == []

    # A big drop in any gated metric trips the gate — including the
    # nested remembered-collections metric.
    for metric in GATED_METRICS:
        slow = json.loads(json.dumps(quick_doc))
        _set_metric(slow, metric, 10**12)
        problems = check_regression(quick_doc, slow, 0.30)
        assert len(problems) == 1
        assert metric in problems[0]

    # Mismatched scales are not comparable.
    standard = dict(quick_doc, scale="standard")
    problems = check_regression(quick_doc, standard, 0.30)
    assert problems and "scale" in problems[0]


def test_bench_main_writes_json_and_gates(tmp_path, quick_doc):
    out = tmp_path / "BENCH_test.json"
    assert bench_main(["--quick", "--repeats", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == BENCH_FORMAT

    # Gate against an easily beatable baseline: passes. (Gating a fresh
    # run against another fresh run is timing noise at --repeats 1; the
    # pass branch must not depend on run-to-run wall-clock stability.)
    easy = json.loads(json.dumps(doc))
    for metric in GATED_METRICS:
        _set_metric(easy, metric, 1.0)
    easy_baseline = tmp_path / "easy.json"
    easy_baseline.write_text(json.dumps(easy))
    out2 = tmp_path / "BENCH_test2.json"
    code = bench_main(
        [
            "--quick",
            "--repeats",
            "1",
            "--out",
            str(out2),
            "--baseline",
            str(easy_baseline),
        ]
    )
    assert code == 0

    # Gate against an impossible baseline: fails.
    impossible = json.loads(json.dumps(doc))
    for metric in GATED_METRICS:
        _set_metric(impossible, metric, 10**12)
    baseline = tmp_path / "impossible.json"
    baseline.write_text(json.dumps(impossible))
    code = bench_main(
        ["--quick", "--repeats", "1", "--out", str(out2), "--baseline", str(baseline)]
    )
    assert code == 1


def test_cli_dispatches_bench_subcommand(tmp_path):
    out = tmp_path / "BENCH_cli.json"
    assert cli_main(["bench", "--quick", "--repeats", "1", "--out", str(out)]) == 0
    assert out.exists()


def test_bench_telemetry_writes_suite_and_case_files(tmp_path):
    out = tmp_path / "BENCH_tel.json"
    tel = tmp_path / "tel"
    code = bench_main(
        [
            "--quick",
            "--repeats",
            "1",
            "--out",
            str(out),
            "--telemetry",
            str(tel),
        ]
    )
    assert code == 0
    names = {p.name for p in tel.glob("*.jsonl")}
    assert "bench_suite.jsonl" in names
    assert "bench_figure1_cell.jsonl" in names
    assert "bench_traverse_replay.jsonl" in names
    assert "bench_collection_throughput.jsonl" in names
    assert "bench_trace_compile_load.jsonl" in names
    assert "bench_multi_tenant_replay.jsonl" in names
    assert any(n.startswith("engine_") for n in names)
    # Readable via the metrics subcommand.
    assert cli_main(["metrics", str(tel)]) == 0


def test_bench_profile_dumps_into_telemetry_dir(tmp_path):
    out = tmp_path / "BENCH_prof.json"
    tel = tmp_path / "tel"
    code = bench_main(
        [
            "--quick",
            "--repeats",
            "1",
            "--out",
            str(out),
            "--telemetry",
            str(tel),
            "--profile",
        ]
    )
    assert code == 0
    stats = tel / "bench_profile.pstats"
    assert stats.exists() and stats.stat().st_size > 0
    # An explicit stats file wins over the telemetry dir.
    explicit = tmp_path / "explicit.pstats"
    code = bench_main(
        [
            "--quick",
            "--repeats",
            "1",
            "--out",
            str(out),
            "--telemetry",
            str(tel),
            "--profile",
            str(explicit),
        ]
    )
    assert code == 0
    assert explicit.exists()


def test_bench_profile_without_telemetry_prints_stats_only(tmp_path, capsys):
    out = tmp_path / "BENCH_prof2.json"
    assert (
        bench_main(["--quick", "--repeats", "1", "--out", str(out), "--profile"])
        == 0
    )
    assert "cumulative" in capsys.readouterr().err
