"""Figure 4: SAIO accuracy over the requested GC-I/O percentage range."""

import pytest

from repro.experiments.figure4 import format_figure4, run_figure4
from repro.sim.engine import RunOptions


@pytest.mark.benchmark(group="figure4")
def test_figure4(benchmark, publish, jobs):
    result = benchmark.pedantic(run_figure4, kwargs={"options": RunOptions(jobs=jobs)}, rounds=1, iterations=1)
    publish("figure4", format_figure4(result))

    # "The SAIO policy is very accurate at controlling the garbage
    # collection I/O percentage."
    for point in result.points:
        assert point.mean == pytest.approx(point.requested, abs=0.02), (
            f"requested {point.requested:.0%}, achieved {point.mean:.2%}"
        )
        # Error bars are narrow ("in many instances hard to distinguish").
        assert point.maximum - point.minimum < 0.03

    # Achieved tracks requested monotonically across the sweep.
    means = [p.mean for p in result.points]
    assert means == sorted(means)
