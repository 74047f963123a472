"""Tests for the command-line experiment runner."""

import pytest

from repro.cli import (
    DEFAULT_CACHE_DIR,
    EXPERIMENTS,
    _build_parser,
    _resolve_cache,
    main,
)
from repro.sim.cache import ResultCache


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in output


def test_experiment_registry_is_complete():
    expected = {
        "table1",
        "figure1",
        "figure4",
        "figure5",
        "figure6",
        "figure7",
        "figure8",
        "figure9",
        "describe",
        "drill",
        "ablation-clock",
        "ablation-clustering",
        "ablation-estimators",
        "ablation-fixed",
        "ablation-history",
        "ablation-selection",
        "ablation-weight",
        "fleet-demo",
    }
    assert set(EXPERIMENTS) == expected


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["figure99"])


def test_run_single_experiment_with_seeds(capsys):
    assert main(["table1", "--seeds", "0"]) == 0
    output = capsys.readouterr().out
    assert "Table 1" in output
    assert "completed in" in output


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["table1", "--out", str(target)]) == 0
    assert target.exists()
    assert "Table 1" in target.read_text()


def test_out_dir_written(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert main(["table1", "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "table1.txt").exists()


def test_bench_is_not_a_subcommand(capsys):
    """Performance is measured by bench/run.py; ``bench`` is just an
    unknown experiment name."""
    with pytest.raises(SystemExit) as caught:
        main(["bench"])
    assert caught.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_profile_writes_pstats_file(tmp_path, capsys):
    import pstats

    stats_file = tmp_path / "table1.pstats"
    assert main(["table1", "--profile", str(stats_file)]) == 0
    assert stats_file.stat().st_size > 0
    assert pstats.Stats(str(stats_file)).total_calls > 0
    assert f"[profile stats written to {stats_file}]" in capsys.readouterr().err


def test_bare_profile_prints_cumulative_table(capsys):
    assert main(["table1", "--profile"]) == 0
    captured = capsys.readouterr()
    assert "Table 1" in captured.out
    assert "Ordered by: cumulative time" in captured.err
    assert "profile stats written" not in captured.err


# ---------------------------------------------------------------- engine flags


def test_engine_flags_parse(tmp_path):
    args = _build_parser().parse_args(
        [
            "figure4",
            "--seeds",
            "0",
            "1",
            "--jobs",
            "4",
            "--cache-dir",
            str(tmp_path),
            "--progress",
        ]
    )
    assert args.jobs == 4
    assert args.cache_dir == tmp_path
    assert args.progress is True
    assert args.no_cache is False
    assert args.seeds == [0, 1]


def test_jobs_defaults_to_auto():
    args = _build_parser().parse_args(["figure4"])
    assert args.jobs is None  # engine resolves to one worker per CPU


def test_jobs_rejects_nonpositive(capsys):
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["figure4", "--jobs", "0"])
    assert "must be >= 1" in capsys.readouterr().err


def test_no_cache_flag_disables_cache(tmp_path):
    args = _build_parser().parse_args(
        ["figure4", "--no-cache", "--cache-dir", str(tmp_path)]
    )
    assert _resolve_cache(args) is None


def test_cache_dir_flag_wins(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    args = _build_parser().parse_args(["figure4", "--cache-dir", str(tmp_path / "flag")])
    cache = _resolve_cache(args)
    assert isinstance(cache, ResultCache)
    assert cache.root == tmp_path / "flag"


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    args = _build_parser().parse_args(["figure4"])
    assert _resolve_cache(args).root == tmp_path / "env"


def test_cache_dir_default(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    args = _build_parser().parse_args(["figure4"])
    assert str(_resolve_cache(args).root) == DEFAULT_CACHE_DIR


def test_run_with_engine_flags(tmp_path, capsys):
    """Flags flow end-to-end through a (non-engine) experiment unharmed."""
    assert (
        main(
            [
                "describe",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--progress",
            ]
        )
        == 0
    )
    assert "completed in" in capsys.readouterr().out


def test_fault_tolerance_flags_parse(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(
        '{"seed": 3, "faults": [{"site": "io.write", "at": 1}]}'
    )
    args = _build_parser().parse_args(
        [
            "figure4",
            "--retries",
            "2",
            "--run-timeout",
            "5.5",
            "--faults",
            str(plan_path),
        ]
    )
    assert args.retries == 2
    assert args.run_timeout == 5.5
    assert args.faults == plan_path


def test_fault_tolerance_flags_default_off():
    args = _build_parser().parse_args(["figure4"])
    assert args.retries == 0
    assert args.run_timeout is None
    assert args.faults is None


def test_retries_rejects_negative(capsys):
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["figure4", "--retries", "-1"])
    assert "must be >= 0" in capsys.readouterr().err


def test_run_with_fault_plan_reports_failures(tmp_path, capsys):
    """An always-crashing plan still completes and reports partial results."""
    plan_path = tmp_path / "plan.json"
    plan_path.write_text('{"faults": [{"site": "io.write", "at": 1}]}')
    assert (
        main(
            [
                "figure1",
                "--seeds",
                "0",
                "--no-cache",
                "--jobs",
                "1",
                "--faults",
                str(plan_path),
                "--retries",
                "1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "completed in" in out


def test_drill_experiment_runs_via_cli(capsys):
    assert main(["drill", "--seeds", "0", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "IDENTICAL" in out
    assert "completed in" in out


def test_drill_exits_nonzero_when_a_seed_diverges(monkeypatch, capsys):
    from repro.experiments import drill_exp

    real = drill_exp.run_crash_recovery_drill

    def drilled(spec, seed, **kwargs):
        report = real(spec, seed, **kwargs)
        if seed == 1:
            report.final_digest = "0" * 64
        return report

    monkeypatch.setattr(drill_exp, "run_crash_recovery_drill", drilled)
    assert main(["drill", "--seeds", "0", "1", "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "DIVERGED" in out
    assert "IDENTICAL" in out


def test_telemetry_flag_parses_and_defaults_off(tmp_path):
    args = _build_parser().parse_args(["figure4"])
    assert args.telemetry is None
    args = _build_parser().parse_args(
        ["figure4", "--telemetry", str(tmp_path / "tel")]
    )
    assert args.telemetry == tmp_path / "tel"


def test_run_with_telemetry_writes_files_and_hints(tmp_path, capsys):
    tel = tmp_path / "tel"
    assert (
        main(
            [
                "figure1",
                "--seeds",
                "0",
                "--no-cache",
                "--jobs",
                "1",
                "--telemetry",
                str(tel),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "completed in" in captured.out
    assert "repro metrics" in captured.err
    assert list(tel.glob("engine_*.jsonl"))
    assert list(tel.glob("run_*.jsonl"))
    # The written telemetry is readable by the metrics subcommand.
    assert main(["metrics", str(tel)]) == 0
    assert "telemetry file(s)" in capsys.readouterr().out


def test_drill_with_telemetry_writes_drill_files(tmp_path, capsys):
    tel = tmp_path / "drill-tel"
    assert (
        main(
            ["drill", "--seeds", "0", "--no-cache", "--telemetry", str(tel)]
        )
        == 0
    )
    assert "IDENTICAL" in capsys.readouterr().out
    assert list(tel.glob("run_000_drill_s0.jsonl"))


@pytest.mark.parametrize(
    "command, flag, bad",
    [
        ("figure1", "--jobs", "0"),
        ("fleet", "--jobs", "0"),
        ("tournament", "--jobs", "0"),
        ("figure1", "--retries", "-1"),
        ("fleet", "--retries", "-1"),
        ("figure1", "--run-timeout", "0"),
        ("fleet", "--run-timeout", "0"),
        ("tournament", "--scale", "0"),
        ("fleet", "--scale", "-1"),
        ("fleet", "--preamble", "-1"),
        ("serve", "--scale", "-1"),
        ("serve", "--max-live-clusters", "0"),
        ("serve", "--checkpoint-every", "0"),
        ("serve", "--max-events", "-5"),
        ("serve", "--workload", "nope"),
        ("serve", "--tenants", "oltp-churn,nope"),
        ("serve", "--policy", "bogus:1"),
    ],
)
def test_out_of_range_flag_is_a_usage_error(command, flag, bad, tmp_path,
                                            monkeypatch, capsys):
    """Every command checks its flags before it runs: exit 2 with the flag
    named, never a traceback from deep inside a run."""
    monkeypatch.chdir(tmp_path)  # nothing may land in the repo if it runs
    # A serve that wrongly accepted the value would otherwise run unbounded.
    bound = ["--max-events", "10"] if command == "serve" else []
    with pytest.raises(SystemExit) as exit_info:
        main([command, *bound, flag, bad])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "plan",
    ["missing", "invalid-json", "missing-site", "faults-not-a-list"],
)
@pytest.mark.parametrize(
    "command",
    [["figure4", "--no-cache"], ["serve", "--soak", "--max-events", "10"]],
    ids=["figure4", "serve-soak"],
)
def test_unusable_fault_plan_is_a_usage_error(plan, command, tmp_path,
                                              monkeypatch, capsys):
    """A fault plan that cannot be read or is malformed ends in exit 2
    naming ``--faults``, before anything runs."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "plan.json"
    text = {
        "invalid-json": "not json",
        "missing-site": '{"faults": [{"at": 1}]}',
        "faults-not-a-list": '{"faults": 5}',
    }.get(plan)
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--faults", str(path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --faults" in err
    assert "Traceback" not in err
