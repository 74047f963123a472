"""Figure 1: the cost of fixed collection rates.

Sweeps the fixed rate (pointer overwrites per collection) over the OO7
application and reports, per rate,

* **Figure 1a** — total I/O operations (application + collector), showing
  that very frequent collection drowns the application in collector I/O
  while very sparse collection loses locality and strands garbage;
* **Figure 1b** — total garbage collected, which falls off as the rate
  coarsens ("a collection rate of 800 results in little garbage being
  collected").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    DEFAULT_CONFIG,
    SAGA_PREAMBLE,
    default_seeds,
    full_scale,
    oo7_spec,
)
from repro.oo7.config import OO7Config
from repro.sim.engine import ParallelRunner, RunOptions
from repro.sim.report import format_table
from repro.sim.spec import PolicySpec

#: The paper's interesting range: 50 ("excessive I/O") to 800 ("little
#: garbage collected") overwrites per collection.
FULL_RATES = (50, 75, 100, 150, 200, 300, 400, 600, 800)
QUICK_RATES = (50, 100, 200, 400, 800)


@dataclass(frozen=True)
class Figure1Row:
    rate: float
    total_io_mean: float
    total_io_min: float
    total_io_max: float
    app_io_mean: float
    gc_io_mean: float
    collected_mean: float
    collected_min: float
    collected_max: float
    collections_mean: float


@dataclass
class Figure1Result:
    rows: list[Figure1Row]
    seeds: list[int]
    config: OO7Config


def run_figure1(
    rates=None,
    seeds=None,
    config: OO7Config = DEFAULT_CONFIG,
    options: RunOptions = RunOptions(),
) -> Figure1Result:
    rates = rates if rates is not None else (FULL_RATES if full_scale() else QUICK_RATES)
    seeds = seeds if seeds is not None else default_seeds()
    specs = [
        oo7_spec(
            PolicySpec("fixed", {"overwrites_per_collection": rate}),
            config,
            SAGA_PREAMBLE,
            label=f"figure1 fixed@{rate:g}",
        )
        for rate in rates
    ]
    aggregates = ParallelRunner(options).run_batch(specs, seeds)
    rows = []
    for rate, aggregate in zip(rates, aggregates):
        total = aggregate.total_io
        collected = aggregate.total_reclaimed
        rows.append(
            Figure1Row(
                rate=rate,
                total_io_mean=total.mean,
                total_io_min=total.minimum,
                total_io_max=total.maximum,
                app_io_mean=sum(s.app_io_total for s in aggregate.summaries)
                / max(1, aggregate.runs),
                gc_io_mean=sum(s.gc_io_total for s in aggregate.summaries)
                / max(1, aggregate.runs),
                collected_mean=collected.mean,
                collected_min=collected.minimum,
                collected_max=collected.maximum,
                collections_mean=aggregate.collections.mean,
            )
        )
    return Figure1Result(rows=rows, seeds=list(seeds), config=config)


def format_figure1(result: Figure1Result) -> str:
    table_a = format_table(
        ["rate (ow/coll)", "total I/O", "min", "max", "app I/O", "GC I/O", "collections"],
        [
            [
                f"{r.rate:g}",
                f"{r.total_io_mean:.0f}",
                f"{r.total_io_min:.0f}",
                f"{r.total_io_max:.0f}",
                f"{r.app_io_mean:.0f}",
                f"{r.gc_io_mean:.0f}",
                f"{r.collections_mean:.1f}",
            ]
            for r in result.rows
        ],
        title="Figure 1a: collection rate vs I/O operations",
    )
    table_b = format_table(
        ["rate (ow/coll)", "garbage collected (KB)", "min", "max"],
        [
            [
                f"{r.rate:g}",
                f"{r.collected_mean / 1024:.0f}",
                f"{r.collected_min / 1024:.0f}",
                f"{r.collected_max / 1024:.0f}",
            ]
            for r in result.rows
        ],
        title="Figure 1b: collection rate vs total garbage collected",
    )
    note = (
        f"(OO7 Small', connectivity {result.config.num_conn_per_atomic}, "
        f"{len(result.seeds)} seeds per point)"
    )
    return "\n\n".join([table_a, table_b, note])
