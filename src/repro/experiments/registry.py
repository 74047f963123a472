"""Registry of named, CLI-runnable experiments.

Historically the CLI hand-listed every ``run_<name>``/``format_<name>``
pair; adding an experiment meant editing three files. The registry
collapses that: each experiment registers itself here as a *name*, a
one-line *description* and a runner that takes the seed list plus a
:class:`~repro.sim.engine.RunOptions` (the engine's settings, passed to
the driver unchanged) and returns the fully formatted report.
``repro-experiments list`` and the ``all`` target read the registry
instead of a hand-maintained table.

Downstream code can add experiments with the :func:`experiment` decorator
(or :func:`register_experiment`) before invoking
:func:`repro.cli.main`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.engine import RunOptions


#: A runner renders one experiment end-to-end: (seeds, options) → report.
ExperimentRunner = Callable[[Optional[list], RunOptions], str]


class FailedReport(str):
    """A report whose experiment failed its own acceptance check (a drill
    that diverged): the CLI prints it like any other and exits 1."""


@dataclass(frozen=True)
class Experiment:
    """One named, runnable experiment."""

    name: str
    description: str
    run: ExperimentRunner
    #: True when the runner actually fans simulation work out over the
    #: engine (i.e. ``jobs``/``cache`` have an effect).
    uses_engine: bool = True


_REGISTRY: dict[str, Experiment] = {}


def register_experiment(exp: Experiment) -> Experiment:
    """Register (or replace) an experiment under its name."""
    _REGISTRY[exp.name] = exp
    return exp


def experiment(
    name: str, description: str, uses_engine: bool = True
) -> Callable[[ExperimentRunner], ExperimentRunner]:
    """Decorator form of :func:`register_experiment`."""

    def decorate(run: ExperimentRunner) -> ExperimentRunner:
        register_experiment(
            Experiment(
                name=name,
                description=description,
                run=run,
                uses_engine=uses_engine,
            )
        )
        return run

    return decorate


def get_experiment(name: str) -> Experiment:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {experiment_names()}"
        ) from None


def experiment_names() -> list[str]:
    return sorted(_REGISTRY)


def iter_experiments() -> list[Experiment]:
    return [_REGISTRY[name] for name in experiment_names()]


# ----------------------------------------------------------------------
# Built-in experiments
# ----------------------------------------------------------------------


@experiment(
    "table1",
    "OO7 database parameters and generated-database verification",
    uses_engine=False,
)
def _table1(seeds, options: RunOptions) -> str:
    from repro.experiments.table1 import format_table1, run_table1

    return format_table1(run_table1())


@experiment("figure1", "fixed collection rate vs I/O and garbage collected")
def _figure1(seeds, options: RunOptions) -> str:
    from repro.experiments.figure1 import format_figure1, run_figure1

    return format_figure1(run_figure1(seeds=seeds, options=options))


@experiment("figure4", "SAIO accuracy sweep")
def _figure4(seeds, options: RunOptions) -> str:
    from repro.experiments.figure4 import format_figure4, run_figure4

    return format_figure4(run_figure4(seeds=seeds, options=options))


@experiment("figure5", "SAGA accuracy sweep per estimator")
def _figure5(seeds, options: RunOptions) -> str:
    from repro.experiments.figure5 import format_figure5, run_figure5

    return format_figure5(run_figure5(seeds=seeds, options=options))


@experiment("figure6", "time-varying garbage estimation (CGS/CB, FGS/HB)")
def _figure6(seeds, options: RunOptions) -> str:
    from repro.experiments.figure6 import format_figure6, run_figure6

    seed = seeds[0] if seeds else 0
    return format_figure6(run_figure6(seed=seed, options=options))


@experiment("figure7", "FGS/HB history parameter study + rate/yield traces")
def _figure7(seeds, options: RunOptions) -> str:
    from repro.experiments.figure7 import format_figure7, run_figure7

    seed = seeds[0] if seeds else 0
    return format_figure7(run_figure7(seed=seed, options=options))


@experiment("figure8", "connectivity sensitivity (6 and 9)")
def _figure8(seeds, options: RunOptions) -> str:
    from repro.experiments.figure8 import format_figure8, run_figure8

    return format_figure8(run_figure8(seeds=seeds, options=options))


@experiment(
    "drill",
    "crash-recovery drill: injected crashes vs byte-identical recovery",
    uses_engine=False,
)
def _drill(seeds, options: RunOptions) -> str:
    from repro.experiments.drill_exp import format_drill, run_drill

    result = run_drill(seeds=seeds, plan=options.faults, telemetry=options.telemetry)
    text = format_drill(result)
    return text if result.all_match else FailedReport(text)


@experiment(
    "describe",
    "Figures 2 and 3: phases and database structure",
    uses_engine=False,
)
def _describe(seeds, options: RunOptions) -> str:
    from repro.oo7.config import SMALL_PRIME
    from repro.oo7.describe import describe_phases, describe_structure

    return "\n\n".join([describe_phases(), describe_structure(SMALL_PRIME)])


@experiment("ablation-clock", "§2 overwrite clock vs allocation clock")
def _ablation_clock(seeds, options: RunOptions) -> str:
    from repro.experiments.ablations import format_clock_ablation, run_clock_ablation

    return format_clock_ablation(run_clock_ablation(seeds=seeds, options=options))


@experiment(
    "ablation-clustering",
    "§3.4 reclustering behaviour of the reorganisations",
    uses_engine=False,
)
def _ablation_clustering(seeds, options: RunOptions) -> str:
    from repro.experiments.clustering_exp import (
        format_clustering_experiment,
        run_clustering_experiment,
    )

    return format_clustering_experiment(run_clustering_experiment(seeds=seeds))


@experiment("ablation-estimators", "§2.4 full 2x2 estimator design space")
def _ablation_estimators(seeds, options: RunOptions) -> str:
    from repro.experiments.estimator_space import (
        format_estimator_space,
        run_estimator_space,
    )

    return format_estimator_space(run_estimator_space(seeds=seeds, options=options))


@experiment("ablation-fixed", "§2.1 partition-heuristic fixed rate failure")
def _ablation_fixed(seeds, options: RunOptions) -> str:
    from repro.experiments.ablations import (
        format_fixed_heuristic,
        run_fixed_heuristic_ablation,
    )

    return format_fixed_heuristic(
        run_fixed_heuristic_ablation(seeds=seeds, options=options)
    )


@experiment("ablation-history", "§4.1.1 SAIO history parameter")
def _ablation_history(seeds, options: RunOptions) -> str:
    from repro.experiments.ablations import (
        format_saio_history,
        run_saio_history_ablation,
    )

    return format_saio_history(run_saio_history_ablation(seeds=seeds, options=options))


@experiment("ablation-selection", "§4.1.2 CGS/CB vs selection policy")
def _ablation_selection(seeds, options: RunOptions) -> str:
    from repro.experiments.ablations import (
        format_selection_ablation,
        run_selection_ablation,
    )

    return format_selection_ablation(
        run_selection_ablation(seeds=seeds, options=options)
    )


@experiment(
    "fleet-demo",
    "grammar-driven multi-tenant fleet: tiny 2-tenant × 2-policy grid",
)
def _fleet_demo(seeds, options: RunOptions) -> str:
    from repro.fleet import run_demo

    return run_demo(seeds, options)


@experiment(
    "figure9",
    "policy tournament: fixed/SAIO/SAGA/learned + estimator error ranking",
)
def _figure9(seeds, options: RunOptions) -> str:
    from repro.experiments.tournament import format_tournament, run_tournament

    return format_tournament(run_tournament(seeds=seeds, options=options))


@experiment("ablation-weight", "§2.3 SAGA slope Weight")
def _ablation_weight(seeds, options: RunOptions) -> str:
    from repro.experiments.ablations import (
        format_weight_ablation,
        run_weight_ablation,
    )

    return format_weight_ablation(run_weight_ablation(seeds=seeds, options=options))
