"""Figure 6: time-varying behaviour of the garbage estimators.

Runs SAGA at a 10% requested garbage percentage under (a) CGS/CB and
(b) FGS/HB, recording target, actual, and estimated garbage percentage at
every collection. Findings this reproduces:

* CGS/CB's estimates swing wildly from collection to collection and are
  biased away from the actual value — its "last victim is representative"
  assumption is broken by UPDATEDPOINTER selection;
* FGS/HB's estimate tracks the actual garbage closely and smoothly, even
  across the Reorg1 → Traverse → Reorg2 phase changes;
* no "time" passes during the read-only Traverse phase (no overwrites, so
  no collections occur within it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import DEFAULT_CONFIG, SAGA_PREAMBLE, oo7_spec
from repro.oo7.config import OO7Config
from repro.sim.engine import ParallelRunner, RunOptions
from repro.sim.metrics import CollectionRecord
from repro.sim.report import ascii_plot, format_table
from repro.sim.spec import PolicySpec


@dataclass
class Figure6Series:
    estimator: str
    records: list[CollectionRecord]

    @property
    def actual(self) -> list[float]:
        return [r.actual_garbage_fraction for r in self.records]

    @property
    def estimated(self) -> list[float]:
        return [r.estimated_garbage_fraction or 0.0 for r in self.records]

    @property
    def target(self) -> list[float]:
        return [r.target_garbage_fraction or 0.0 for r in self.records]


@dataclass
class Figure6Result:
    series: dict[str, Figure6Series]
    requested: float
    seed: int
    config: OO7Config


def run_figure6(
    requested: float = 0.10,
    estimators=("cgs-cb", "fgs-hb"),
    history: float = 0.8,
    seed: int = 0,
    config: OO7Config = DEFAULT_CONFIG,
    options: RunOptions = RunOptions(),
) -> Figure6Result:
    specs = [
        oo7_spec(
            PolicySpec(
                "saga",
                {
                    "garbage_fraction": requested,
                    "estimator": name,
                    "history": history,
                },
            ),
            config,
            SAGA_PREAMBLE,
            label=f"figure6 saga/{name}",
        )
        for name in estimators
    ]
    aggregates = ParallelRunner(options).run_batch(specs, [seed], keep_records=True)
    series = {}
    for name, aggregate in zip(estimators, aggregates):
        series[name] = Figure6Series(estimator=name, records=aggregate.records[0] if aggregate.records else [])
    return Figure6Result(series=series, requested=requested, seed=seed, config=config)


def format_figure6(result: Figure6Result) -> str:
    sections = []
    for label, panel in (("6a", "cgs-cb"), ("6b", "fgs-hb")):
        if panel not in result.series:
            continue
        series = result.series[panel]
        if not series.records:
            sections.append(
                f"Figure {label}: no surviving runs for {panel} "
                "(all runs failed); panel omitted"
            )
            continue
        sections.append(
            ascii_plot(
                {
                    "actual": series.actual,
                    "estimated": series.estimated,
                    "target": series.target,
                },
                title=(
                    f"Figure {label}: time-varying garbage estimation, "
                    f"{panel} at {result.requested:.0%} requested "
                    f"({len(series.records)} collections)"
                ),
                y_label="garbage fraction",
            )
        )
        # Quantify the claims: estimate volatility and bias per estimator.
        estimates = series.estimated
        actuals = series.actual
        jumps = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
        bias = sum(e - a for e, a in zip(estimates, actuals)) / max(1, len(estimates))
        sections.append(
            format_table(
                ["estimator", "collections", "mean |Δestimate|", "mean bias (est-act)"],
                [
                    [
                        panel,
                        len(series.records),
                        f"{sum(jumps) / max(1, len(jumps)) * 100:.2f}%",
                        f"{bias * 100:+.2f}%",
                    ]
                ],
            )
        )
    return "\n\n".join(sections)
