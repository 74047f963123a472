"""Experiment drivers: one module per table/figure plus ablations.

Every driver exposes ``run_<name>()`` returning structured results and
``format_<name>()`` rendering them as terminal tables/plots; each is also
registered by name in :mod:`repro.experiments.registry`, which the CLI
(``python -m repro``) enumerates. The benchmark harness under
``benchmarks/`` wraps the drivers directly. Sim-based drivers take one
``options=`` :class:`~repro.sim.engine.RunOptions` (workers, caches,
progress, retries, faults, telemetry) and fan out through
:class:`repro.sim.engine.ParallelRunner`.
"""

from repro.experiments.ablations import (
    run_clock_ablation,
    run_fixed_heuristic_ablation,
    run_saio_history_ablation,
    run_selection_ablation,
    run_weight_ablation,
)
from repro.experiments.clustering_exp import (
    format_clustering_experiment,
    run_clustering_experiment,
)
from repro.experiments.common import default_seeds, full_scale
from repro.experiments.estimator_space import (
    format_estimator_space,
    run_estimator_space,
)
from repro.experiments.figure1 import format_figure1, run_figure1
from repro.experiments.figure4 import format_figure4, run_figure4
from repro.experiments.figure5 import format_figure5, run_figure5
from repro.experiments.figure6 import format_figure6, run_figure6
from repro.experiments.figure7 import format_figure7, run_figure7
from repro.experiments.figure8 import format_figure8, run_figure8
from repro.experiments.registry import (
    Experiment,
    experiment,
    experiment_names,
    get_experiment,
    iter_experiments,
    register_experiment,
)
from repro.experiments.table1 import format_table1, run_table1
from repro.sim.engine import RunOptions

__all__ = [
    "Experiment",
    "RunOptions",
    "default_seeds",
    "experiment",
    "experiment_names",
    "get_experiment",
    "iter_experiments",
    "register_experiment",
    "format_figure1",
    "format_figure4",
    "format_figure5",
    "format_figure6",
    "format_figure7",
    "format_figure8",
    "format_table1",
    "full_scale",
    "run_figure1",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "format_clustering_experiment",
    "format_estimator_space",
    "run_clock_ablation",
    "run_clustering_experiment",
    "run_estimator_space",
    "run_fixed_heuristic_ablation",
    "run_saio_history_ablation",
    "run_selection_ablation",
    "run_table1",
    "run_weight_ablation",
]
