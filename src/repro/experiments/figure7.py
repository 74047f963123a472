"""Figure 7: history-parameter study of the FGS/HB heuristic.

**Figure 7a** runs SAGA/FGS-HB at a 10% request with history factors
h ∈ {0.5, 0.8, 0.95} and records the estimated vs actual garbage percentage
per collection. Findings this reproduces:

* h = 0.95 adapts sluggishly — large swings and errors after behaviour
  changes, settling only after many collections;
* h = 0.5 is responsive but noisy, developing oscillations driven by the
  control law's slope estimate;
* h = 0.8 is the practical middle ground the paper uses.

**Figure 7b** records, for h = 0.8, the collection rate (overwrites between
collections), the collection yield (bytes reclaimed), and the garbage
percentage over time. The paper's observations: initially high collection
rates during the database cold start; a settling rate of roughly one
collection per ~200 overwrites; Reorg1 garbage persisting several
collections into the Reorg2 era; and lower yields as Reorg2 executes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import DEFAULT_CONFIG, SAGA_PREAMBLE, oo7_spec
from repro.oo7.config import OO7Config
from repro.sim.engine import ParallelRunner, RunOptions
from repro.sim.metrics import CollectionRecord
from repro.sim.report import ascii_plot, format_table
from repro.sim.spec import PolicySpec

HISTORY_VALUES = (0.5, 0.8, 0.95)


@dataclass
class Figure7Run:
    history: float
    records: list[CollectionRecord]

    @property
    def intervals(self) -> list[float]:
        """Overwrites between successive collections (the collection rate)."""
        clocks = [r.overwrite_clock for r in self.records]
        return [float(b - a) for a, b in zip(clocks, clocks[1:])]

    @property
    def yields(self) -> list[float]:
        return [float(r.reclaimed_bytes) for r in self.records]

    @property
    def actual(self) -> list[float]:
        return [r.actual_garbage_fraction for r in self.records]

    @property
    def estimated(self) -> list[float]:
        return [r.estimated_garbage_fraction or 0.0 for r in self.records]


@dataclass
class Figure7Result:
    runs: dict[float, Figure7Run]
    requested: float
    seed: int
    config: OO7Config


def run_figure7(
    requested: float = 0.10,
    histories=HISTORY_VALUES,
    seed: int = 0,
    config: OO7Config = DEFAULT_CONFIG,
    options: RunOptions = RunOptions(),
) -> Figure7Result:
    specs = [
        oo7_spec(
            PolicySpec(
                "saga",
                {
                    "garbage_fraction": requested,
                    "estimator": "fgs-hb",
                    "history": history,
                },
            ),
            config,
            SAGA_PREAMBLE,
            label=f"figure7 fgs-hb h={history:g}",
        )
        for history in histories
    ]
    aggregates = ParallelRunner(options).run_batch(specs, [seed], keep_records=True)
    runs = {}
    for history, aggregate in zip(histories, aggregates):
        runs[history] = Figure7Run(history=history, records=aggregate.records[0] if aggregate.records else [])
    return Figure7Result(runs=runs, requested=requested, seed=seed, config=config)


def format_figure7(result: Figure7Result) -> str:
    sections = []
    # 7a: estimation quality per history value.
    rows = []
    for history, run in sorted(result.runs.items()):
        errors = [abs(e - a) for e, a in zip(run.estimated, run.actual)]
        mean_error = sum(errors) / max(1, len(errors))
        jumps = [abs(b - a) for a, b in zip(run.estimated, run.estimated[1:])]
        rows.append(
            [
                f"{history:g}",
                len(run.records),
                f"{mean_error * 100:.2f}%",
                f"{(sum(jumps) / max(1, len(jumps))) * 100:.2f}%",
            ]
        )
    sections.append(
        format_table(
            ["history h", "collections", "mean |est-act|", "mean |Δestimate|"],
            rows,
            title="Figure 7a: FGS/HB history parameter study (10% requested)",
        )
    )
    for history, run in sorted(result.runs.items()):
        if not run.records:
            sections.append(
                f"Figure 7a: h={history:g} — no surviving runs "
                "(all runs failed); plot omitted"
            )
            continue
        sections.append(
            ascii_plot(
                {"actual": run.actual, "estimated": run.estimated},
                title=f"Figure 7a: h={history:g} — estimated vs actual garbage",
                y_label="garbage fraction",
                height=10,
            )
        )

    # 7b: rate / yield / garbage over time at h=0.8.
    reference = result.runs.get(0.8) or next(iter(result.runs.values()))
    if not reference.records:
        sections.append(
            "Figure 7b: no surviving runs (all runs failed); panels omitted"
        )
        return "\n\n".join(sections)
    if reference.intervals:
        sections.append(
            ascii_plot(
                {"overwrites/collection": reference.intervals},
                title="Figure 7b (top): collection rate over time (h=0.8)",
                y_label="overwrites between collections",
                height=10,
            )
        )
    sections.append(
        ascii_plot(
            {"yield (bytes)": reference.yields},
            title="Figure 7b (middle): collection yield over time",
            y_label="bytes reclaimed",
            height=10,
        )
    )
    sections.append(
        ascii_plot(
            {"actual": reference.actual, "estimated": reference.estimated},
            title="Figure 7b (bottom): garbage percentage over time",
            y_label="garbage fraction",
            height=10,
        )
    )
    settled = reference.intervals[len(reference.intervals) // 3 :]
    if settled:
        sections.append(
            "settled collection rate (h=0.8): one collection per "
            f"{sum(settled) / len(settled):.0f} overwrites "
            "(paper: ~200 overwrites after the cold-start transient)"
        )
    return "\n\n".join(sections)
