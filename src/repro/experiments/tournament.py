"""Policy tournament: fixed / SAIO / SAGA / learned across a scenario grid.

The paper compares its adaptive policies one figure at a time; this
experiment puts them in one bracket. Each scenario is a grammar-driven
tenant mix on the fleet heap geometry; each policy runs the same
scenarios over the same seeds through the parallel engine, and the
"Figure 9" report ranks them on end-to-end I/O *and* — for the SAGA
family — on estimator quality (mean ``|estimated − actual|`` garbage
fraction per collection, the same metric as the §2.4 design-space
ablation).

The learned entrant (:mod:`repro.gc.learned`) either loads a pre-trained
model artifact (``--model``) or **self-trains**: a teacher sweep runs
``saga:oracle`` over the tournament scenarios with telemetry on, the GC
timelines become training rows, and the freshly fitted model enters the
bracket. The teacher sweep always runs without the result cache —
result-cache hits replay summaries without emitting telemetry, and an
empty training set must be impossible — but shares the bracket's trace
cache, so each (scenario, seed) trace is built once.

Determinism contract (CI-gated): the report and the ``--json`` document
contain no wall-clock and no machine-dependent values, so repeat runs are
byte-identical at any ``--jobs``; self-trained models are bit-identical
because training never reads telemetry timing fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from repro.cli import COMMON_ENGINE_FLAGS, add_engine_flags, positive_float, run_options
from repro.fleet import _default_sim_config
from repro.gc.learned import LearnedModel, train_model
from repro.obs.features import load_training_rows
from repro.sim.engine import ParallelRunner, RunOptions
from repro.sim.report import format_percent, format_table
from repro.sim.spec import ExperimentSpec, PolicySpec, WorkloadSpec
from repro.workload.tenants import tenant_mix
from repro.workload.trace_cache import TraceCache

#: Report/JSON schema version; bump on breaking changes.
TOURNAMENT_FORMAT = 1

#: The scenario bracket: name → tenant profiles interleaved into one mix.
SCENARIOS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("oltp-churn", ("oltp-churn",)),
    ("churn+browse", ("oltp-churn", "read-browse")),
    ("bulk+churn", ("bulk-load", "oltp-churn")),
)

#: SAGA requested garbage level shared by every SAGA entrant.
SAGA_LEVEL = 0.15

#: Hand-designed SAGA estimators the learned model competes against.
HAND_DESIGNED = ("cgs-cb", "fgs-hb")


@dataclass(frozen=True)
class TournamentCell:
    """One (scenario, policy) cell's aggregated outcome."""

    scenario: str
    policy: str
    #: Estimator short name for SAGA cells ("" otherwise).
    estimator: str
    collections: float
    gc_io_fraction: float
    total_io: float
    garbage_fraction: float
    #: Mean per-collection |estimated − actual| garbage fraction over all
    #: runs; None for policies that do not estimate garbage.
    estimator_mae: Optional[float]
    failures: int


@dataclass(frozen=True)
class ScenarioRanking:
    """Learned vs best hand-designed estimator on one scenario."""

    scenario: str
    learned_mae: Optional[float]
    best_hand: str
    best_hand_mae: Optional[float]

    @property
    def learned_wins(self) -> bool:
        return (
            self.learned_mae is not None
            and self.best_hand_mae is not None
            and self.learned_mae <= self.best_hand_mae
        )


@dataclass
class TournamentResult:
    cells: list[TournamentCell]
    rankings: list[ScenarioRanking]
    seeds: list[int]
    scale: float
    model: LearnedModel
    #: Where the model artifact lives ("" when it was supplied pre-trained
    #: at an externally chosen path — the report never includes paths).
    self_trained: bool


def _scenario_specs(
    scale: float, policies: Sequence[tuple[str, str, PolicySpec]]
) -> list[ExperimentSpec]:
    """The full grid: every scenario × every (display, estimator, policy)."""
    specs = []
    for scenario_name, profiles in SCENARIOS:
        mix = tenant_mix(list(profiles), scale=scale)
        workload = WorkloadSpec("tenant-mix", {"config": mix})
        for display, _estimator, policy in policies:
            specs.append(
                ExperimentSpec(
                    policy=policy,
                    workload=workload,
                    sim=_default_sim_config(),
                    label=f"{scenario_name} × {display}",
                )
            )
    return specs


def train_from_scenarios(
    seeds: Sequence[int],
    scale: float,
    options: RunOptions = RunOptions(),
    train_seed: int = 0,
) -> LearnedModel:
    """Self-train: oracle-supervised teacher sweep → fitted model.

    Runs an oracle-supervised SAGA cell *plus* fixed and SAIO cells over
    every tournament scenario with telemetry into a temp dir and fits the
    learned model from the GC timelines. The non-SAGA teachers matter:
    they cover collection-state distributions the oracle-driven policy
    never visits, which is exactly where the deployed estimator would
    otherwise extrapolate. Deliberately without the result cache (see
    module docstring): of ``options`` it takes only the workers, the
    progress callback and the trace cache.
    """
    teacher = [
        ("teacher-oracle", "oracle",
         PolicySpec("saga", {"garbage_fraction": SAGA_LEVEL,
                             "estimator": "oracle"})),
        ("teacher-fgs", "fgs-hb",
         PolicySpec("saga", {"garbage_fraction": SAGA_LEVEL,
                             "estimator": "fgs-hb"})),
        ("teacher-fixed", "",
         PolicySpec("fixed", {"overwrites_per_collection": 20.0})),
        ("teacher-saio", "", PolicySpec("saio", {"io_fraction": 0.10})),
    ]
    specs = _scenario_specs(scale, teacher)
    with tempfile.TemporaryDirectory(prefix="repro-tournament-") as tmp:
        teacher_options = RunOptions(
            jobs=options.jobs, progress=options.progress,
            trace_cache=options.trace_cache, telemetry=tmp,
        )
        ParallelRunner(teacher_options).run_batch(specs, seeds)
        matrix = load_training_rows([tmp])
        model, _report = train_model(
            matrix.rows, seed=train_seed, files=len(matrix.files)
        )
    return model


def run_tournament(
    seeds: Optional[Sequence[int]] = None,
    model: Optional[LearnedModel] = None,
    model_path: Optional[str] = None,
    scale: float = 3.0,
    train_seed: int = 0,
    options: RunOptions = RunOptions(),
) -> TournamentResult:
    """Run the bracket; self-train the learned entrant when no model given.

    ``model_path`` deploys a saved artifact (its content hash is verified
    on load); ``model`` passes one in-process. ``options`` are the
    engine's settings for the bracket (workers, caches, progress, ...).
    """
    seeds = list(seeds) if seeds else [0, 1]
    # One trace cache for the teacher sweep and the bracket.
    if not isinstance(options.trace_cache, TraceCache):
        options = replace(options, trace_cache=TraceCache(options.trace_cache))
    self_trained = False
    if model is None and model_path is not None:
        model = LearnedModel.load(model_path)
    if model is None:
        model = train_from_scenarios(seeds, scale, options, train_seed=train_seed)
        self_trained = True

    # The learned cell references the model through a content-pinned spec
    # file so the engine's cache fingerprints track the model bytes. The
    # artifact must exist on disk for worker processes to load.
    with tempfile.TemporaryDirectory(prefix="repro-tournament-") as tmp:
        if model_path is None:
            deployed = str(Path(tmp) / "model.json")
            model.save(deployed)
        else:
            deployed = model_path
        learned_spec = f"learned:{deployed}@{model.sha256[:12]}"

        policies: list[tuple[str, str, PolicySpec]] = [
            ("fixed:20", "",
             PolicySpec("fixed", {"overwrites_per_collection": 20.0})),
            ("saio:0.10", "", PolicySpec("saio", {"io_fraction": 0.10})),
        ]
        for name in HAND_DESIGNED:
            policies.append(
                (f"saga:{SAGA_LEVEL:g}:{name}", name,
                 PolicySpec("saga", {"garbage_fraction": SAGA_LEVEL,
                                     "estimator": name}))
            )
        policies.append(
            (f"saga:{SAGA_LEVEL:g}:learned@{model.sha256[:12]}", "learned",
             PolicySpec("saga", {"garbage_fraction": SAGA_LEVEL,
                                 "estimator": learned_spec}))
        )

        specs = _scenario_specs(scale, policies)
        aggregates = ParallelRunner(options).run_batch(
            specs, seeds, keep_records=True
        )

    flat = [
        (scenario_name, display, estimator)
        for scenario_name, _profiles in SCENARIOS
        for display, estimator, _policy in policies
    ]
    cells = []
    for (scenario_name, display, estimator), aggregate in zip(flat, aggregates):
        maes = []
        for records in aggregate.records:
            pairs = [
                (r.estimated_garbage_fraction, r.actual_garbage_fraction)
                for r in records
                if r.estimated_garbage_fraction is not None
            ]
            if pairs:
                maes.append(sum(abs(e - a) for e, a in pairs) / len(pairs))
        cells.append(
            TournamentCell(
                scenario=scenario_name,
                policy=display,
                estimator=estimator,
                collections=aggregate.collections.mean,
                gc_io_fraction=aggregate.gc_io_fraction.mean,
                total_io=aggregate.total_io.mean,
                garbage_fraction=aggregate.garbage_fraction.mean,
                estimator_mae=(sum(maes) / len(maes)) if maes else None,
                failures=len(aggregate.failures),
            )
        )

    rankings = []
    for scenario_name, _profiles in SCENARIOS:
        by_est = {
            c.estimator: c.estimator_mae
            for c in cells
            if c.scenario == scenario_name and c.estimator
        }
        hand: list[tuple[str, float]] = []
        for name in HAND_DESIGNED:
            mae = by_est.get(name)
            if mae is not None:
                hand.append((name, mae))
        best_hand = ""
        best_mae: Optional[float] = None
        if hand:
            best_hand, best_mae = min(hand, key=lambda kv: kv[1])
        rankings.append(
            ScenarioRanking(
                scenario=scenario_name,
                learned_mae=by_est.get("learned"),
                best_hand=best_hand,
                best_hand_mae=best_mae,
            )
        )

    return TournamentResult(
        cells=cells,
        rankings=rankings,
        seeds=seeds,
        scale=scale,
        model=model,
        self_trained=self_trained,
    )


def format_tournament(result: TournamentResult) -> str:
    """The "Figure 9" report — deterministic, byte-identical at any --jobs."""
    rows = []
    for cell in result.cells:
        rows.append(
            [
                cell.scenario,
                cell.policy,
                f"{cell.collections:.1f}",
                format_percent(cell.gc_io_fraction),
                f"{cell.total_io:.0f}",
                format_percent(cell.garbage_fraction),
                format_percent(cell.estimator_mae)
                if cell.estimator_mae is not None
                else "-",
                cell.failures,
            ]
        )
    table = format_table(
        ["scenario", "policy", "collections", "gc io", "total IO",
         "garbage", "est MAE", "failed"],
        rows,
        title=(
            "Figure 9: policy tournament — fixed / SAIO / SAGA / learned "
            f"({len(result.seeds)} seeds, scale {result.scale:g})"
        ),
    )
    lines = [
        "Estimator ranking (mean per-collection |estimated - actual| "
        "garbage fraction):"
    ]
    for ranking in result.rankings:
        if ranking.learned_mae is None or ranking.best_hand_mae is None:
            lines.append(f"  {ranking.scenario:14s} insufficient collections")
            continue
        verdict = "LEARNED WINS" if ranking.learned_wins else "hand-designed wins"
        lines.append(
            f"  {ranking.scenario:14s} learned {ranking.learned_mae * 100:.2f}%"
            f"  vs  best hand-designed {ranking.best_hand} "
            f"{ranking.best_hand_mae * 100:.2f}%  -> {verdict}"
        )
    model = result.model
    origin = "self-trained" if result.self_trained else "pre-trained"
    lines.append(
        f"model: learned@{model.sha256[:12]} ({origin} on "
        f"{model.trained_rows} collections from {model.trained_files} "
        f"telemetry files; train MAE {model.train_mae * 100:.2f}%)"
    )
    lines.append(f"seeds: {' '.join(str(s) for s in result.seeds)}")
    return table + "\n\n" + "\n".join(lines)


def tournament_json(result: TournamentResult) -> str:
    """Machine-readable document (stable field order; CI parses this)."""
    document = {
        "format": TOURNAMENT_FORMAT,
        "seeds": result.seeds,
        "scale": result.scale,
        "model": {
            "sha256": result.model.sha256,
            "self_trained": result.self_trained,
            "trained_rows": result.model.trained_rows,
            "trained_files": result.model.trained_files,
            "train_mae": result.model.train_mae,
        },
        "cells": [
            {
                "scenario": cell.scenario,
                "policy": cell.policy,
                "estimator": cell.estimator,
                "collections": cell.collections,
                "gc_io_fraction": cell.gc_io_fraction,
                "total_io": cell.total_io,
                "garbage_fraction": cell.garbage_fraction,
                "estimator_mae": cell.estimator_mae,
                "failures": cell.failures,
            }
            for cell in result.cells
        ],
        "rankings": [
            {
                "scenario": ranking.scenario,
                "learned_mae": ranking.learned_mae,
                "best_hand": ranking.best_hand,
                "best_hand_mae": ranking.best_hand_mae,
                "learned_wins": ranking.learned_wins,
            }
            for ranking in result.rankings
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# CLI: ``python -m repro tournament``
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro tournament",
        description=(
            "Rank fixed / SAIO / SAGA / learned policies across the "
            "scenario bracket (the 'Figure 9' report)."
        ),
    )
    parser.add_argument(
        "--model",
        default=None,
        metavar="MODEL.JSON",
        help=(
            "deploy this trained model artifact (from 'python -m repro "
            "train'); default: self-train from an oracle teacher sweep"
        ),
    )
    parser.add_argument(
        "--train-out",
        type=Path,
        default=None,
        metavar="MODEL.JSON",
        help="when self-training, also save the fitted model here",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1],
        help="seed list (default: 0 1)",
    )
    parser.add_argument(
        "--scale", type=positive_float, default=3.0,
        help="tenant-profile operation multiplier (default: %(default)s)",
    )
    parser.add_argument(
        "--train-seed", type=int, default=0,
        help="SGD seed for self-training (default: %(default)s)",
    )
    add_engine_flags(parser, *COMMON_ENGINE_FLAGS, "--progress")
    parser.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="also write the machine-readable tournament document here",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the report to this file",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(
        list(argv) if argv is not None else sys.argv[1:]
    )
    options = run_options(args)
    reporter = options.progress
    started = time.time()
    result = run_tournament(
        seeds=args.seeds,
        model_path=args.model,
        scale=args.scale,
        train_seed=args.train_seed,
        options=options,
    )
    elapsed = time.time() - started

    if args.train_out is not None and result.self_trained:
        path = result.model.save(args.train_out)
        print(f"[self-trained model written to {path}]", file=sys.stderr)

    report = format_tournament(result)
    print(report)
    print(
        f"[tournament in {elapsed:.1f}s{reporter.summary()}]",
        file=sys.stderr,
    )
    if args.out is not None:
        args.out.write_text(report + "\n")
        print(f"[written to {args.out}]", file=sys.stderr)
    if args.json is not None:
        args.json.write_text(tournament_json(result))
        print(f"[json written to {args.json}]", file=sys.stderr)
    return 1 if any(cell.failures for cell in result.cells) else 0


__all__ = [
    "HAND_DESIGNED",
    "SAGA_LEVEL",
    "SCENARIOS",
    "ScenarioRanking",
    "TOURNAMENT_FORMAT",
    "TournamentCell",
    "TournamentResult",
    "format_tournament",
    "main",
    "run_tournament",
    "tournament_json",
    "train_from_scenarios",
]


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(main(sys.argv[1:]))
