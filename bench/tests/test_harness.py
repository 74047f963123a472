"""Harness self-tests at ``--scale smoke``: ``python -m pytest bench/tests -q``.

Outside tier-1 ``testpaths`` on purpose — these test the benchmark, not the
program. Every run below is a smoke-scale run of ``bench/run.py`` in this
process (set-up children are real subprocesses).
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from probe import Tracer, high_percentile, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke(capsys, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One smoke run; returns (result line, detail record)."""
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "smoke"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"], result
    detail = json.loads(
        (run.OUT / f"run_{workload}_seed{seed}_trace{trace}.json").read_text()
    )
    return result, detail


def test_manifest_matches_metric_tables():
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in MANIFEST[key]]
        assert listed == [(m.name, m.unit, m.better) for m in table]
    assert [m["bound"] for m in MANIFEST["end_to_end"]] == [m.bound for m in END_TO_END]
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in MANIFEST["workloads"]] == [w.why for w in WORKLOADS.values()]
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted(capsys, workload):
    result, _ = smoke(capsys, workload, seed=0, trace=0)
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0
    traced, _ = smoke(capsys, workload, seed=0, trace=1)
    assert list(traced["metrics"]) == [m.name for m in PER_LAYER]
    assert {entry["unit"] for entry in traced["metrics"].values()} <= {m.unit for m in PER_LAYER}


def test_high_percentile_needs_ten_samples_beyond():
    assert high_percentile(9_999) == 99.0
    assert high_percentile(10_000) == 99.9
    assert high_percentile(1_000) == 99.0
    assert high_percentile(999) == 95.0
    assert high_percentile(199) == 90.0
    assert high_percentile(39) == 50.0
    ordered = [float(i) for i in range(1000)]
    p99 = percentile(ordered, 99.0)
    assert sum(value > p99 for value in ordered) == 10
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0


def test_self_times_sum_to_the_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        inner()
        inner()
        time.sleep(0.001)

    inner = tracer.traced(leaf, "storage.leaf")
    outer = tracer.traced(middle, "sim.middle")
    with tracer.span("bench.cell"):
        outer()
        time.sleep(0.001)
    own = tracer.self_times()
    root = tracer.ends[0] - tracer.starts[0]
    assert sum(own) == pytest.approx(root, abs=1e-9)
    table = tracer.by_name()
    assert table["storage.leaf"]["count"] == 2
    assert table["sim.middle"]["self_s"] == pytest.approx(
        table["sim.middle"]["total_s"] - table["storage.leaf"]["total_s"], abs=1e-9
    )
    assert tracer.durations("storage.leaf") == pytest.approx(
        [tracer.ends[i] - tracer.starts[i] for i in (2, 3)]
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_layers_cover_the_wall(capsys, workload):
    result, detail = smoke(capsys, workload, seed=0, trace=1)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    wall = metrics["bench.traced_wall_s"]
    layers = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layers + metrics["bench.residual_frac"] * wall == pytest.approx(wall, rel=1e-6)
    assert sum(detail["self_s_by_name"].values()) == pytest.approx(wall, rel=1e-6)
    lines = (run.OUT / f"trace_{workload}.jsonl").read_text().splitlines()
    assert len(lines) == detail["trace_lines"]
    assert {"name", "cell", "self_s"} <= set(json.loads(lines[0]))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_metrics_repeat_and_follow_the_seed(capsys, workload):
    exact = [m.name for m in PER_LAYER if m.exact]
    first, first_detail = smoke(capsys, workload, seed=0, trace=1)
    again, again_detail = smoke(capsys, workload, seed=0, trace=1)
    other, other_detail = smoke(capsys, workload, seed=1, trace=1)
    for name in exact:
        assert first["metrics"][name] == again["metrics"][name], name
    assert first_detail["summary_digest"] == again_detail["summary_digest"]
    assert first_detail["summary_digest"] != other_detail["summary_digest"]
    assert any(first["metrics"][name] != other["metrics"][name] for name in exact)


def test_compare_verdicts():
    assert compare.judge("lower", 0.1, [1.0, 1.01, 0.99], [1.2, 1.21, 1.19])[0] == "worse"
    assert compare.judge("lower", 0.1, [1.0, 1.01, 0.99], [0.9, 0.91, 0.89])[0] == "better"
    assert compare.judge("higher", 0.1, [1.0, 1.01, 0.99], [0.8, 0.81, 0.79])[0] == "worse"
    assert compare.judge("lower", 0.1, [1.0, 1.3, 0.8], [1.05, 1.0, 1.1])[0] == "unresolved"
    assert compare.judge("lower", 0.1, [1.0, 1.01, 0.99], [1.02, 1.0, 1.03])[0] == "within bound"
