"""Figure 4: effectiveness of the SAIO policy.

Sweeps the requested garbage-collection I/O percentage and reports the
achieved percentage (mean over seeds, with min/max error bars). The paper's
findings this experiment reproduces:

* achieved ≈ requested across the whole range;
* at the highest percentages the achieved value drifts slightly *above* the
  request (the ``ΔGCIO = CurrGCIO`` assumption breaks down more often when
  collections are dense, and the errors do not cancel — §4.1.1);
* with ``c_hist = 0`` the policy is maximally responsive; history makes
  little accuracy difference for OO7 but damps the high-percentage drift.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    DEFAULT_CONFIG,
    SAIO_PREAMBLE,
    SWEEP_HEADERS,
    SweepPoint,
    default_seeds,
    full_scale,
    oo7_spec,
    sweep_rows,
)
from repro.oo7.config import OO7Config
from repro.sim.engine import ParallelRunner, RunOptions
from repro.sim.report import format_table
from repro.sim.spec import PolicySpec

FULL_FRACTIONS = (0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50, 0.65, 0.80)
QUICK_FRACTIONS = (0.05, 0.10, 0.20, 0.40, 0.65)


@dataclass
class Figure4Result:
    points: list[SweepPoint]
    c_hist: float
    seeds: list[int]
    config: OO7Config


def run_figure4(
    fractions=None,
    seeds=None,
    c_hist: float = 0,
    config: OO7Config = DEFAULT_CONFIG,
    options: RunOptions = RunOptions(),
) -> Figure4Result:
    fractions = (
        fractions
        if fractions is not None
        else (FULL_FRACTIONS if full_scale() else QUICK_FRACTIONS)
    )
    seeds = seeds if seeds is not None else default_seeds()
    specs = [
        oo7_spec(
            PolicySpec("saio", {"io_fraction": fraction, "c_hist": c_hist}),
            config,
            SAIO_PREAMBLE,
            label=f"figure4 saio@{fraction:.0%}",
        )
        for fraction in fractions
    ]
    aggregates = ParallelRunner(options).run_batch(specs, seeds)
    points = []
    for fraction, aggregate in zip(fractions, aggregates):
        stat = aggregate.gc_io_fraction
        points.append(
            SweepPoint(
                requested=fraction,
                mean=stat.mean,
                minimum=stat.minimum,
                maximum=stat.maximum,
            )
        )
    return Figure4Result(points=points, c_hist=c_hist, seeds=list(seeds), config=config)


def format_figure4(result: Figure4Result) -> str:
    table = format_table(
        SWEEP_HEADERS,
        sweep_rows(result.points),
        title="Figure 4: SAIO achieved vs requested GC I/O percentage",
    )
    note = (
        f"(c_hist={result.c_hist:g}, connectivity "
        f"{result.config.num_conn_per_atomic}, {len(result.seeds)} seeds per point)"
    )
    return f"{table}\n\n{note}"
