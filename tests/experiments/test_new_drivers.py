"""Driver tests for the estimator-space and clustering experiments."""

import dataclasses

from repro.experiments.clustering_exp import (
    format_clustering_experiment,
    run_clustering_experiment,
)
from repro.experiments.estimator_space import (
    format_estimator_space,
    run_estimator_space,
)
from repro.oo7.config import OO7Config

DRIVER_CONFIG = OO7Config(
    num_atomic_per_comp=10,
    num_comp_per_module=40,
    num_assm_levels=3,
    manual_size=16 * 1024,
    document_size=800,
)


def test_estimator_space_driver():
    result = run_estimator_space(
        requested=0.15,
        seeds=[0],
        config=DRIVER_CONFIG,
        estimators=("oracle", "fgs-hb"),
    )
    names = [row.estimator for row in result.rows]
    assert names == ["oracle", "fgs-hb"]
    oracle = result.rows[0]
    assert oracle.estimate_abs_error == 0.0
    report = format_estimator_space(result)
    assert "design space" in report
    assert "fgs-hb" in report


def test_estimator_space_is_deterministic():
    kwargs = dict(requested=0.15, seeds=[1], config=DRIVER_CONFIG, estimators=("fgs-hb",))
    assert run_estimator_space(**kwargs).rows == run_estimator_space(**kwargs).rows


def test_clustering_driver():
    result = run_clustering_experiment(seeds=[0], config=DRIVER_CONFIG)
    states = [row.state for row in result.rows]
    assert states == [
        "after GenDB",
        "after Reorg1",
        "after Reorg2",
        "Reorg2 + full GC",
    ]
    for row in result.rows:
        assert row.mean_spread >= 1.0
        assert 0.0 <= row.clustered_fraction <= 1.0
        assert 0.0 <= row.hit_rate <= 1.0
        assert row.footprint_pages > 0
    # Pinned: the route a phase takes to the store must not move a figure.
    assert [dataclasses.astuple(row)[1:] for row in result.rows] == [
        (1.05, 1.0, 0.977340488968396, 34.0),
        (2.075, 0.925, 0.9093988145639289, 45.0),
        (3.225, 0.0, 0.842067480258435, 56.0),
        (3.225, 0.0, 0.8048780487804879, 34.0),
    ]
    report = format_clustering_experiment(result)
    assert "reclustering" in report
