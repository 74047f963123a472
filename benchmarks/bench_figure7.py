"""Figure 7: FGS/HB history-parameter study and rate/yield/garbage traces."""

import pytest

from repro.experiments.figure7 import format_figure7, run_figure7
from repro.sim.engine import RunOptions


def _mean_abs_error(run):
    pairs = list(zip(run.estimated, run.actual))
    return sum(abs(e - a) for e, a in pairs) / max(1, len(pairs))


def _mean_jump(run):
    values = run.estimated
    jumps = [abs(b - a) for a, b in zip(values, values[1:])]
    return sum(jumps) / max(1, len(jumps))


@pytest.mark.benchmark(group="figure7")
def test_figure7(benchmark, publish, jobs):
    result = benchmark.pedantic(run_figure7, kwargs={"options": RunOptions(jobs=jobs)}, rounds=1, iterations=1)
    publish("figure7", format_figure7(result))

    h50 = result.runs[0.5]
    h80 = result.runs[0.8]
    h95 = result.runs[0.95]

    # Figure 7a: h=0.5 is responsive but noisy — its estimate moves more
    # from collection to collection than the practical h=0.8 setting.
    assert _mean_jump(h50) > _mean_jump(h80) > _mean_jump(h95)

    # h=0.8 is the practical middle ground the paper uses: its tracking
    # error is no worse than the sluggish extreme.
    assert _mean_abs_error(h80) <= _mean_abs_error(h95) + 0.02

    # Figure 7b (top): the cold start begins at the high bootstrap cadence
    # (the very first interval is short), wanders while the controller is
    # still below target (Δt stretches toward the clamp), then settles.
    intervals = h80.intervals
    assert len(intervals) > 10
    settled_window = intervals[len(intervals) // 3 :]
    settled = sum(settled_window) / len(settled_window)
    assert intervals[0] < settled
    # The settled rate is in the paper's ballpark of one collection per
    # ~200 overwrites.
    assert 100 <= settled <= 500
    # Settled intervals are far from both clamps (Δt_min=2, Δt_max=1000 are
    # "rarely utilized" per §2.3).
    clamped = sum(1 for i in settled_window if i <= 4 or i >= 990)
    assert clamped <= len(settled_window) // 4

    # Figure 7b (middle): Reorg2 yields less garbage per collection as it
    # executes — the last quarter's mean yield is below the overall mean.
    yields = h80.yields
    tail = yields[3 * len(yields) // 4 :]
    assert sum(tail) / len(tail) < sum(yields) / len(yields)
