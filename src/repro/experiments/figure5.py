"""Figure 5: effectiveness of the SAGA policy per garbage estimator.

Sweeps the requested garbage percentage for SAGA driven by each estimator
(oracle, CGS/CB, FGS/HB) and reports achieved percentages. Findings this
reproduces:

* the **oracle** curve is nearly indistinguishable from perfect accuracy —
  the control algorithm itself is sound and its assumptions hold;
* **FGS/HB** is close to the request with a small systematic overshoot
  (the "bump" the paper traces to Traverse-phase sampling and estimation
  lag);
* **CGS/CB** is far off and largely insensitive to the request, with much
  larger run-to-run spread ("the control algorithm in its case behaves
  much more erratically").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    DEFAULT_CONFIG,
    SAGA_PREAMBLE,
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

FULL_FRACTIONS = (0.02, 0.05, 0.08, 0.10, 0.15, 0.20, 0.25, 0.30)
QUICK_FRACTIONS = (0.05, 0.10, 0.20, 0.30)
ESTIMATORS = ("oracle", "cgs-cb", "fgs-hb")


@dataclass
class Figure5Result:
    sweeps: dict[str, list[SweepPoint]]
    history: float
    seeds: list[int]
    config: OO7Config


def run_figure5(
    fractions=None,
    seeds=None,
    estimators=ESTIMATORS,
    history: float = 0.8,
    config: OO7Config = DEFAULT_CONFIG,
    options: RunOptions = RunOptions(),
) -> Figure5Result:
    fractions = (
        fractions
        if fractions is not None
        else (FULL_FRACTIONS if full_scale() else QUICK_FRACTIONS)
    )
    seeds = seeds if seeds is not None else default_seeds()
    settings = [
        (estimator_name, fraction)
        for estimator_name in estimators
        for fraction in fractions
    ]
    specs = [
        oo7_spec(
            PolicySpec(
                "saga",
                {
                    "garbage_fraction": fraction,
                    "estimator": estimator_name,
                    "history": history,
                },
            ),
            config,
            SAGA_PREAMBLE,
            label=f"figure5 saga/{estimator_name}@{fraction:.0%}",
        )
        for estimator_name, fraction in settings
    ]
    aggregates = ParallelRunner(options).run_batch(specs, seeds)
    sweeps: dict[str, list[SweepPoint]] = {name: [] for name in estimators}
    for (estimator_name, fraction), aggregate in zip(settings, aggregates):
        stat = aggregate.garbage_fraction
        sweeps[estimator_name].append(
            SweepPoint(
                requested=fraction,
                mean=stat.mean,
                minimum=stat.minimum,
                maximum=stat.maximum,
            )
        )
    return Figure5Result(
        sweeps=sweeps, history=history, seeds=list(seeds), config=config
    )


def format_figure5(result: Figure5Result) -> str:
    sections = []
    for name, points in result.sweeps.items():
        sections.append(
            format_table(
                SWEEP_HEADERS,
                sweep_rows(points),
                title=f"Figure 5 ({name}): SAGA achieved vs requested garbage percentage",
            )
        )
    note = (
        f"(FGS/HB history h={result.history:g}, connectivity "
        f"{result.config.num_conn_per_atomic}, {len(result.seeds)} seeds per point)"
    )
    sections.append(note)
    return "\n\n".join(sections)
