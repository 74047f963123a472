"""Figure 1: collection rate vs I/O operations (a) and garbage collected (b)."""

import pytest

from repro.experiments.figure1 import format_figure1, run_figure1
from repro.sim.engine import RunOptions


@pytest.mark.benchmark(group="figure1")
def test_figure1(benchmark, publish, jobs):
    result = benchmark.pedantic(run_figure1, kwargs={"options": RunOptions(jobs=jobs)}, rounds=1, iterations=1)
    publish("figure1", format_figure1(result))
    rows = {r.rate: r for r in result.rows}
    fastest, slowest = min(rows), max(rows)

    # Figure 1a: very frequent collection inflates total I/O well beyond the
    # sparse end ("a collection rate of 50 results in excessive numbers of
    # I/O operations").
    assert rows[fastest].total_io_mean > 1.5 * rows[slowest].total_io_mean
    assert rows[fastest].gc_io_mean > rows[fastest].app_io_mean
    # GC I/O decreases monotonically as the rate coarsens.
    gc_io = [rows[rate].gc_io_mean for rate in sorted(rows)]
    assert gc_io == sorted(gc_io, reverse=True)
    # Application I/O *increases* as collection gets sparse (lost locality
    # and accumulated garbage).
    assert rows[slowest].app_io_mean > rows[fastest].app_io_mean

    # Figure 1b: total garbage collected falls off with the rate ("a rate of
    # 800 results in little garbage being collected").
    collected = [rows[rate].collected_mean for rate in sorted(rows)]
    assert collected == sorted(collected, reverse=True)
    assert rows[slowest].collected_mean < 0.5 * rows[fastest].collected_mean
