"""The fleet driver: policy parsing, grid building, CLI end-to-end."""

import json

import pytest

from repro.cli import main as cli_main
from repro.fleet import (
    build_grid,
    load_scenario,
    main as fleet_main,
    parse_policy,
)
from repro.sim.spec import PolicySpec
from repro.workload.grammar import GrammarError, WorkloadConfig
from repro.workload.tenants import TenantMixConfig, make_profile, tenant_mix

from serial_oracle import serially


# ----------------------------------------------------------------------
# Policy parsing
# ----------------------------------------------------------------------


def test_parse_policy_forms():
    assert parse_policy("fixed:60") == PolicySpec(
        "fixed", {"overwrites_per_collection": 60.0}
    )
    assert parse_policy("allocation:24576") == PolicySpec(
        "allocation", {"bytes_per_collection": 24576.0}
    )
    assert parse_policy("saio:0.1") == PolicySpec("saio", {"io_fraction": 0.1})
    assert parse_policy("saga:0.25") == PolicySpec(
        "saga", {"garbage_fraction": 0.25}
    )
    assert parse_policy("saga:0.25:cgs-hb") == PolicySpec(
        "saga", {"garbage_fraction": 0.25, "estimator": "cgs-hb"}
    )


@pytest.mark.parametrize("bad", ["bogus:1", "fixed", "fixed:abc", "saga:x"])
def test_parse_policy_rejects_malformed(bad):
    with pytest.raises(ValueError, match="accepted forms"):
        parse_policy(bad)


# ----------------------------------------------------------------------
# Grid building and scenario loading
# ----------------------------------------------------------------------


def test_build_grid_interleaved_mix():
    mix = tenant_mix(["oltp-churn", "read-browse"], scale=0.1)
    policies = [parse_policy("fixed:20"), parse_policy("saio:0.1")]
    specs = build_grid(mix, policies)
    assert len(specs) == 2
    assert all(s.workload.kind == "tenant-mix" for s in specs)
    assert {s.policy.kind for s in specs} == {"fixed", "saio"}
    assert all(mix.name in s.label for s in specs)


def test_build_grid_sharded_mix():
    mix = tenant_mix(["oltp-churn", "read-browse"], scale=0.1)
    specs = build_grid(mix, [parse_policy("fixed:20")], shard=True)
    assert len(specs) == 2
    assert all(s.workload.kind == "grammar" for s in specs)
    labels = {s.label.split(" × ")[0] for s in specs}
    assert labels == {f"{mix.name}/oltp-churn", f"{mix.name}/read-browse"}


def test_build_grid_single_grammar_config():
    config = make_profile("oltp-churn", scale=0.1)
    specs = build_grid(config, [parse_policy("fixed:20")])
    assert len(specs) == 1 and specs[0].workload.kind == "grammar"
    with pytest.raises(GrammarError, match="shard"):
        build_grid(config, [parse_policy("fixed:20")], shard=True)


def test_load_scenario_dispatches_by_shape(tmp_path):
    config = make_profile("oltp-churn", scale=0.1)
    mix = tenant_mix(["oltp-churn", "read-browse"], scale=0.1)

    grammar_json = tmp_path / "g.json"
    grammar_json.write_text(config.to_json())
    assert load_scenario(grammar_json) == config

    grammar_toml = tmp_path / "g.toml"
    grammar_toml.write_text(config.to_toml())
    assert load_scenario(grammar_toml) == config

    mix_json = tmp_path / "m.json"
    mix_json.write_text(mix.to_json())
    assert load_scenario(mix_json) == mix

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(GrammarError):
        load_scenario(broken)


# ----------------------------------------------------------------------
# CLI end-to-end
# ----------------------------------------------------------------------

_BASE = ["--profiles", "oltp-churn", "read-browse", "--scale", "0.2", "--seeds", "0"]


def _run(tmp_path, *extra, out_name="report.txt"):
    out = tmp_path / out_name
    code = fleet_main(
        [*_BASE, "--cache-dir", str(tmp_path / "cache"), "--out", str(out), *extra]
    )
    return code, out


def test_fleet_runs_and_reports(tmp_path, capsys):
    code, out = _run(tmp_path)
    assert code == 0
    report = out.read_text()
    assert "Fleet sweep" in report and "seeds: 0" in report
    assert report in capsys.readouterr().out + report  # printed to stdout too


def test_fleet_reports_byte_identical_across_jobs(tmp_path):
    code1, out1 = _run(tmp_path, "--jobs", "1", out_name="jobs1.txt")
    code2, out2 = _run(
        tmp_path, "--jobs", "2", "--no-cache", out_name="jobs2.txt"
    )
    assert code1 == code2 == 0
    assert out1.read_text() == out2.read_text()


def test_fleet_second_run_is_fully_cached(tmp_path):
    code, _ = _run(tmp_path)
    assert code == 0
    code, _ = _run(tmp_path, "--expect-all-cached", out_name="second.txt")
    assert code == 0


def test_fleet_expect_all_cached_fails_cold(tmp_path):
    code, _ = _run(tmp_path, "--no-cache", "--expect-all-cached")
    assert code == 3


def test_fleet_emit_scenario_round_trips(tmp_path):
    scenario_file = tmp_path / "scenario.json"
    code, _ = _run(tmp_path, "--emit-scenario", str(scenario_file))
    assert code == 0
    payload = json.loads(scenario_file.read_text())
    assert TenantMixConfig.from_dict(payload).name == "oltp-churn+read-browse"

    out = tmp_path / "from-config.txt"
    code = fleet_main(
        [
            "--config", str(scenario_file),
            "--seeds", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out),
        ]
    )
    assert code == 0 and out.exists()


def test_fleet_shard_mode_reports_per_tenant(tmp_path):
    code, out = _run(tmp_path, "--shard", out_name="shard.txt")
    assert code == 0
    report = out.read_text()
    assert "sharded" in report
    assert "/oltp-churn" in report and "/read-browse" in report


def test_fleet_grammar_config_file(tmp_path):
    config_file = tmp_path / "one.toml"
    config_file.write_text(make_profile("read-browse", scale=0.1).to_toml())
    out = tmp_path / "one.txt"
    code = fleet_main(
        [
            "--config", str(config_file),
            "--seeds", "0",
            "--no-cache",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "read-browse" in out.read_text()


def test_fleet_telemetry_files(tmp_path):
    tel = tmp_path / "tel"
    code, _ = _run(tmp_path, "--no-cache", "--telemetry", str(tel))
    assert code == 0
    names = [p.name for p in tel.glob("*.jsonl")]
    assert any(n.startswith("engine_") for n in names)
    assert any(n.startswith("run_") for n in names)
    assert cli_main(["metrics", str(tel)]) == 0


def test_fleet_error_paths(tmp_path, capsys):
    assert fleet_main(["--profiles", "no-such-profile"]) == 2
    assert "no-such-profile" in capsys.readouterr().err
    assert fleet_main([*_BASE, "--policies", "bogus:1"]) == 2
    assert "accepted forms" in capsys.readouterr().err
    assert fleet_main(["--config", str(tmp_path / "missing.json")]) == 2


def test_cli_dispatches_fleet_subcommand(tmp_path):
    out = tmp_path / "via-cli.txt"
    code = cli_main(
        [
            "fleet",
            *_BASE,
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out),
        ]
    )
    assert code == 0 and out.exists()


def test_fleet_demo_experiment_runs(tmp_path, capsys):
    code = cli_main(
        ["fleet-demo", "--seeds", "0", "--cache-dir", str(tmp_path / "cache")]
    )
    assert code == 0
    assert "Fleet demo grid" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Per-run summary CSV and the one collection path
# ----------------------------------------------------------------------


def test_fleet_summary_csv_rows_per_cell_and_seed(tmp_path):
    csv_path = tmp_path / "runs.csv"
    code, _ = _run(
        tmp_path,
        "--seeds", "0", "1",
        "--summary-csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["cell", "policy", "seed", "error"]
    assert "collections" in header and "total_reclaimed_bytes" in header
    # 1 interleaved scenario × 2 default policies × 2 seeds.
    assert len(lines) == 1 + 2 * 2
    seeds = [line.split(",")[2] for line in lines[1:]]
    assert seeds == ["0", "1", "0", "1"]
    assert all(line.split(",")[3] == "" for line in lines[1:]), "no failures"


def test_fleet_summary_csv_byte_identical_across_jobs(tmp_path):
    csv1 = tmp_path / "jobs1.csv"
    csv2 = tmp_path / "jobs2.csv"
    code1, _ = _run(
        tmp_path, "--jobs", "1", "--summary-csv", str(csv1),
        out_name="jobs1.txt",
    )
    code2, _ = _run(
        tmp_path, "--jobs", "2", "--no-cache", "--summary-csv", str(csv2),
        out_name="jobs2.txt",
    )
    assert code1 == code2 == 0
    assert csv1.read_bytes() == csv2.read_bytes()


def test_fleet_report_matches_the_serial_oracle(tmp_path):
    """Every run pipelines its collections, an execution detail: the
    report and the per-seed summary CSV are byte-identical to the ones
    made under the zero-lead oracle, which traces inside every pause."""

    def sweep(name):
        code = fleet_main(
            [*_BASE, "--jobs", "1", "--no-cache",
             "--summary-csv", str(tmp_path / f"{name}.csv"),
             "--out", str(tmp_path / f"{name}.txt")]
        )
        assert code == 0
        return [(tmp_path / f"{name}{ext}").read_bytes() for ext in (".txt", ".csv")]

    assert sweep("pipelined") == serially(sweep, "serial")


def test_format_summary_csv_quarantined_seed_gets_error_row():
    from repro.fleet import build_grid, format_summary_csv
    from repro.sim.metrics import SimulationSummary
    from repro.sim.engine import AggregateResult, RunFailure

    specs = build_grid(
        tenant_mix(["oltp-churn"], scale=0.2), [parse_policy("fixed:20")]
    )
    summary = SimulationSummary(
        events=10, collections=2, preamble_collections=0,
        garbage_fraction_mean=0.1, garbage_fraction_min=0.0,
        garbage_fraction_max=0.2, gc_io_fraction=0.3,
        gc_io_fraction_total=0.3, app_io_total=100, gc_io_total=40,
        total_reclaimed_bytes=500, total_garbage_generated=600,
        pointer_overwrites=50, final_garbage_fraction=0.05,
        final_db_size=4000, final_partitions=2, significant=True,
    )
    results = [
        AggregateResult(
            summaries=[summary],
            failures=[RunFailure(specs[0].label, seed=0, error="Boom()",
                                 attempts=1)],
        )
    ]
    lines = format_summary_csv(specs, results, seeds=[0, 1]).splitlines()
    assert len(lines) == 3
    failed, ok = lines[1].split(","), lines[2].split(",")
    assert failed[2] == "0" and failed[3] == "Boom()"
    assert all(cell == "" for cell in failed[4:])
    assert ok[2] == "1" and ok[3] == "" and "500" in ok
