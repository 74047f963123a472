"""Ablation: the complete 2×2 garbage-estimator design space (§2.4).

The paper derives its estimators from two orthogonal axes — state
granularity (coarse/fine) and behaviour summary (current/history) — but
evaluates only two corners (CGS/CB, FGS/HB) against the oracle. This
experiment fills in the matrix: it runs SAGA at one requested garbage level
under all four corners plus the oracle and reports, per estimator, the
achieved garbage percentage and the estimation quality (bias and mean
absolute error of the estimate against the true garbage at each
collection).

Expected ordering (and what the bench asserts): fine grain beats coarse
grain on estimation error, and history smoothing reduces estimate
volatility on both state granularities.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    DEFAULT_CONFIG,
    SAGA_PREAMBLE,
    default_seeds,
    oo7_spec,
)
from repro.oo7.config import OO7Config
from repro.sim.engine import ParallelRunner, RunOptions
from repro.sim.report import format_table
from repro.sim.spec import PolicySpec

ESTIMATOR_SPACE = ("oracle", "cgs-cb", "cgs-hb", "fgs-cb", "fgs-hb")


@dataclass(frozen=True)
class EstimatorRow:
    estimator: str
    achieved_mean: float
    achieved_spread: float
    estimate_bias: float
    estimate_abs_error: float
    estimate_jitter: float
    collections_mean: float


@dataclass
class EstimatorSpaceResult:
    requested: float
    history: float
    rows: list[EstimatorRow]
    seeds: list[int]


def run_estimator_space(
    requested: float = 0.10,
    history: float = 0.8,
    seeds=None,
    config: OO7Config = DEFAULT_CONFIG,
    estimators=ESTIMATOR_SPACE,
    options: RunOptions = RunOptions(),
) -> EstimatorSpaceResult:
    seeds = seeds if seeds is not None else default_seeds()
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
            label=f"estimator-space saga/{name}",
        )
        for name in estimators
    ]
    aggregates = ParallelRunner(options).run_batch(specs, seeds, keep_records=True)
    rows = []
    for name, aggregate in zip(estimators, aggregates):
        biases, abs_errors, jitters = [], [], []
        for records in aggregate.records:
            pairs = [
                (r.estimated_garbage_fraction, r.actual_garbage_fraction)
                for r in records
                if r.estimated_garbage_fraction is not None
            ]
            if pairs:
                biases.append(sum(e - a for e, a in pairs) / len(pairs))
                abs_errors.append(sum(abs(e - a) for e, a in pairs) / len(pairs))
                estimates = [e for e, _a in pairs]
                jumps = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
                jitters.append(sum(jumps) / max(1, len(jumps)))

        stat = aggregate.garbage_fraction
        rows.append(
            EstimatorRow(
                estimator=name,
                achieved_mean=stat.mean,
                achieved_spread=stat.spread,
                estimate_bias=sum(biases) / max(1, len(biases)),
                estimate_abs_error=sum(abs_errors) / max(1, len(abs_errors)),
                estimate_jitter=sum(jitters) / max(1, len(jitters)),
                collections_mean=aggregate.collections.mean,
            )
        )
    return EstimatorSpaceResult(
        requested=requested, history=history, rows=rows, seeds=list(seeds)
    )


def format_estimator_space(result: EstimatorSpaceResult) -> str:
    table = format_table(
        [
            "estimator",
            "achieved",
            "spread",
            "estimate bias",
            "mean |est-act|",
            "estimate jitter",
            "collections",
        ],
        [
            [
                row.estimator,
                f"{row.achieved_mean * 100:.2f}%",
                f"{row.achieved_spread * 100:.2f}%",
                f"{row.estimate_bias * 100:+.2f}%",
                f"{row.estimate_abs_error * 100:.2f}%",
                f"{row.estimate_jitter * 100:.2f}%",
                f"{row.collections_mean:.1f}",
            ]
            for row in result.rows
        ],
        title=(
            f"§2.4 design space: SAGA estimators at {result.requested:.0%} "
            f"requested (h={result.history:g}, {len(result.seeds)} seeds)"
        ),
    )
    note = (
        "Axes: CGS/FGS = coarse/fine grain state; CB/HB = current/history "
        "behaviour. Fine grain state fixes the bias; history smoothing fixes "
        "the jitter; FGS/HB combines both (the paper's recommendation)."
    )
    return f"{table}\n\n{note}"
