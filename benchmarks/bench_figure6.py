"""Figure 6: time-varying behaviour of the CGS/CB and FGS/HB estimators."""

import pytest

from repro.experiments.figure6 import format_figure6, run_figure6
from repro.sim.engine import RunOptions


@pytest.mark.benchmark(group="figure6")
def test_figure6(benchmark, publish, jobs):
    result = benchmark.pedantic(run_figure6, kwargs={"options": RunOptions(jobs=jobs)}, rounds=1, iterations=1)
    publish("figure6", format_figure6(result))

    cgs = result.series["cgs-cb"]
    fgs = result.series["fgs-hb"]

    def mean_jump(series):
        values = series.estimated
        jumps = [abs(b - a) for a, b in zip(values, values[1:])]
        return sum(jumps) / max(1, len(jumps))

    def mean_bias(series):
        pairs = list(zip(series.estimated, series.actual))
        return sum(e - a for e, a in pairs) / max(1, len(pairs))

    def mean_abs_error(series):
        pairs = list(zip(series.estimated, series.actual))
        return sum(abs(e - a) for e, a in pairs) / max(1, len(pairs))

    # Figure 6a: "CGS/CB exhibits widely varying estimates … and a
    # significant overestimation of the actual amount of garbage".
    assert mean_jump(cgs) > 3 * mean_jump(fgs)
    assert mean_bias(cgs) > 0.05

    # Figure 6b: "FGS/HB shows a consistently accurate estimate … even when
    # the application behavior changes", with much less variation.
    assert mean_abs_error(fgs) < 0.5 * mean_abs_error(cgs)
    assert mean_jump(fgs) < 0.03

    # The rate of collection is controlled by the heuristic, so the two
    # runs perform different numbers of collections (as the paper notes).
    assert len(cgs.records) != len(fgs.records)

    # No collections occur inside the read-only Traverse phase: overwrite
    # time does not progress there.
    for series in (cgs, fgs):
        assert not any(r.phase == "Traverse" for r in series.records)
