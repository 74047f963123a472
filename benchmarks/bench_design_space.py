"""Benches for the §2.4 estimator design space and §3.4 reclustering."""

import pytest

from repro.experiments.clustering_exp import (
    format_clustering_experiment,
    run_clustering_experiment,
)
from repro.experiments.estimator_space import (
    format_estimator_space,
    run_estimator_space,
)
from repro.sim.engine import RunOptions


@pytest.mark.benchmark(group="design-space")
def test_estimator_design_space(benchmark, publish, jobs):
    """§2.4's two axes do what the paper says: fine grain state removes the
    selection-induced bias, history behaviour removes the jitter, and the
    recommended FGS/HB corner combines both."""
    result = benchmark.pedantic(run_estimator_space, kwargs={"options": RunOptions(jobs=jobs)}, rounds=1, iterations=1)
    publish("ablation_estimator_space", format_estimator_space(result))
    rows = {row.estimator: row for row in result.rows}

    # State axis: fine grain slashes the estimation bias.
    assert abs(rows["fgs-cb"].estimate_bias) < 0.5 * abs(rows["cgs-cb"].estimate_bias)
    assert abs(rows["fgs-hb"].estimate_bias) < 0.5 * abs(rows["cgs-hb"].estimate_bias)

    # Behaviour axis: history smoothing cuts estimate jitter on both states.
    assert rows["cgs-hb"].estimate_jitter < rows["cgs-cb"].estimate_jitter
    assert rows["fgs-hb"].estimate_jitter < rows["fgs-cb"].estimate_jitter

    # The oracle anchors the scale.
    assert rows["oracle"].estimate_abs_error == pytest.approx(0.0, abs=1e-9)

    # FGS/HB has the lowest absolute estimation error of the practical four
    # (allowing a small tolerance against FGS/CB, its close sibling).
    practical = [rows[name].estimate_abs_error for name in ("cgs-cb", "cgs-hb", "fgs-cb")]
    assert rows["fgs-hb"].estimate_abs_error <= min(practical) + 0.01


@pytest.mark.benchmark(group="design-space")
def test_reclustering_behaviour(benchmark, publish):
    """§3.4: Reorg1 preserves clustering, Reorg2 breaks it; compaction
    recovers page footprint but cannot un-scatter composites."""
    result = benchmark.pedantic(run_clustering_experiment, rounds=1, iterations=1)
    publish("ablation_clustering", format_clustering_experiment(result))
    rows = {row.state: row for row in result.rows}

    fresh = rows["after GenDB"]
    reorg1 = rows["after Reorg1"]
    reorg2 = rows["after Reorg2"]
    collected = rows["Reorg2 + full GC"]

    # Fresh databases are essentially perfectly clustered.
    assert fresh.mean_spread < 1.5
    assert fresh.clustered_fraction > 0.9

    # Reorg1 preserves clustering; Reorg2 destroys it.
    assert reorg1.mean_spread < fresh.mean_spread + 2.0
    assert reorg2.mean_spread > reorg1.mean_spread + 3.0
    assert reorg2.clustered_fraction < 0.2

    # De-clustering costs traversal locality (Figure 1a's mechanism).
    assert reorg2.hit_rate < reorg1.hit_rate < fresh.hit_rate + 1e-9

    # Compaction shrinks the traversal page footprint but cannot restore
    # per-composite clustering.
    assert collected.footprint_pages < reorg2.footprint_pages
    assert collected.mean_spread == pytest.approx(reorg2.mean_spread, abs=0.5)
