"""Shared infrastructure for the per-figure experiment drivers.

Every driver follows the paper's protocol (§3.2, §4.1): multiple simulation
runs per data point that differ only in the random seed, reported as the
mean with min/max error bars.

Two scales are provided:

* **quick** (default) — 3 seeds and a reduced parameter grid, so the full
  benchmark suite finishes in minutes;
* **full** (``REPRO_FULL=1``) — 10 seeds and the paper-scale grids, used to
  produce the numbers recorded in EXPERIMENTS.md.

Preamble conventions: SAGA-style experiments exclude the paper's 10
cold-start collections. SAIO performs far fewer, more expensive collections
per run, so SAIO experiments use a 2-collection preamble (documented in
DESIGN.md/EXPERIMENTS.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from repro.oo7.config import SMALL_PRIME, OO7Config
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import ExperimentSpec, PolicySpec, SelectionSpec, WorkloadSpec
from repro.storage.heap import StoreConfig

#: Preamble used for SAGA / fixed-rate experiments (the paper's choice).
SAGA_PREAMBLE = 10
#: Preamble used for SAIO experiments (few collections per run).
SAIO_PREAMBLE = 2


def engine_options(engine_kwargs: dict) -> dict:
    """Normalise a driver's ``**engine_kwargs`` for the parallel engine.

    Drivers forward whatever engine options they are given (``jobs``,
    ``cache``, ``progress``, ``retries``, ``run_timeout``, ``faults``, …)
    verbatim — new engine features reach every driver without touching
    their signatures. The single default imposed here is ``jobs=1``, so
    direct programmatic callers get the deterministic in-process path
    unless they opt into parallelism.
    """
    engine_kwargs.setdefault("jobs", 1)
    return engine_kwargs


def full_scale() -> bool:
    """Whether paper-scale grids were requested via ``REPRO_FULL=1``."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "no")


def default_seeds() -> list[int]:
    """Seeds per data point: 10 at full scale (the paper), 3 quick."""
    return list(range(10)) if full_scale() else [0, 1, 2]


def paper_store_config() -> StoreConfig:
    """The paper's geometry: 8 KB pages, 96 KB partitions, 12-page buffer."""
    return StoreConfig()


def sim_config(preamble: int, **kwargs) -> SimulationConfig:
    return SimulationConfig(store=paper_store_config(), preamble_collections=preamble, **kwargs)


def oo7_spec(
    policy: PolicySpec,
    config: OO7Config,
    preamble: int,
    selection: SelectionSpec = None,
    label: str = "",
) -> ExperimentSpec:
    """An :class:`ExperimentSpec` over the OO7 application workload.

    The declarative unit every driver hands the parallel engine: one policy
    setting, the paper's store geometry, and the per-policy preamble.
    """
    return ExperimentSpec(
        policy=policy,
        workload=WorkloadSpec("oo7", {"config": config}),
        selection=selection if selection is not None else SelectionSpec(),
        sim=sim_config(preamble),
        label=label,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One row of an accuracy sweep: requested setting vs achieved stat."""

    requested: float
    mean: float
    minimum: float
    maximum: float

    @property
    def error(self) -> float:
        return self.mean - self.requested


def sweep_rows(points: Sequence[SweepPoint]) -> list[list[object]]:
    """Render sweep points as table rows (percentages)."""
    return [
        [
            f"{p.requested * 100:.1f}%",
            f"{p.mean * 100:.2f}%",
            f"{p.minimum * 100:.2f}%",
            f"{p.maximum * 100:.2f}%",
            f"{p.error * 100:+.2f}%",
        ]
        for p in points
    ]

SWEEP_HEADERS = ["requested", "achieved (mean)", "min", "max", "error"]

#: The database configuration every experiment defaults to.
DEFAULT_CONFIG = SMALL_PRIME
