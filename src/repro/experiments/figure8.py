"""Figure 8: sensitivity of policy accuracy to database connectivity.

Repeats the Figure 4 (SAIO) and Figure 5 (SAGA, oracle and FGS/HB) accuracy
sweeps with ``NumConnPerAtomic`` set to 6 and 9 instead of 3. The paper's
finding: "the results in the graphs are consistent with those [at
connectivity 3] … the SAIO and SAGA policies are effective across a variety
of database connectivities."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    DEFAULT_CONFIG,
    SAGA_PREAMBLE,
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

FULL_FRACTIONS = (0.05, 0.10, 0.15, 0.20, 0.30)
QUICK_FRACTIONS = (0.05, 0.10, 0.20)
CONNECTIVITIES = (6, 9)


@dataclass
class Figure8Result:
    #: saio[connectivity] and saga[(estimator, connectivity)] sweeps.
    saio: dict[int, list[SweepPoint]]
    saga: dict[tuple[str, int], list[SweepPoint]]
    seeds: list[int]
    config: OO7Config


def run_figure8(
    fractions=None,
    seeds=None,
    connectivities=CONNECTIVITIES,
    estimators=("oracle", "fgs-hb"),
    config: OO7Config = DEFAULT_CONFIG,
    options: RunOptions = RunOptions(),
) -> Figure8Result:
    fractions = (
        fractions
        if fractions is not None
        else (FULL_FRACTIONS if full_scale() else QUICK_FRACTIONS)
    )
    seeds = seeds if seeds is not None else default_seeds()

    # One flat batch over every (connectivity, policy, fraction) setting so
    # the whole figure fans out across workers at once.
    settings = []
    specs = []
    for connectivity in connectivities:
        variant = config.with_connectivity(connectivity)
        for fraction in fractions:
            settings.append(("saio", connectivity, fraction))
            specs.append(
                oo7_spec(
                    PolicySpec("saio", {"io_fraction": fraction}),
                    variant,
                    SAIO_PREAMBLE,
                    label=f"figure8 saio conn={connectivity}@{fraction:.0%}",
                )
            )
        for estimator_name in estimators:
            for fraction in fractions:
                settings.append((estimator_name, connectivity, fraction))
                specs.append(
                    oo7_spec(
                        PolicySpec(
                            "saga",
                            {"garbage_fraction": fraction, "estimator": estimator_name},
                        ),
                        variant,
                        SAGA_PREAMBLE,
                        label=(
                            f"figure8 saga/{estimator_name} "
                            f"conn={connectivity}@{fraction:.0%}"
                        ),
                    )
                )

    aggregates = ParallelRunner(options).run_batch(specs, seeds)

    saio: dict[int, list[SweepPoint]] = {}
    saga: dict[tuple[str, int], list[SweepPoint]] = {}
    for (kind, connectivity, fraction), aggregate in zip(settings, aggregates):
        if kind == "saio":
            stat = aggregate.gc_io_fraction
            bucket = saio.setdefault(connectivity, [])
        else:
            stat = aggregate.garbage_fraction
            bucket = saga.setdefault((kind, connectivity), [])
        bucket.append(SweepPoint(fraction, stat.mean, stat.minimum, stat.maximum))
    return Figure8Result(saio=saio, saga=saga, seeds=list(seeds), config=config)


def format_figure8(result: Figure8Result) -> str:
    sections = []
    for connectivity, points in sorted(result.saio.items()):
        sections.append(
            format_table(
                SWEEP_HEADERS,
                sweep_rows(points),
                title=f"Figure 8: SAIO accuracy at connectivity {connectivity}",
            )
        )
    for (estimator, connectivity), points in sorted(result.saga.items()):
        sections.append(
            format_table(
                SWEEP_HEADERS,
                sweep_rows(points),
                title=(
                    f"Figure 8: SAGA ({estimator}) accuracy at "
                    f"connectivity {connectivity}"
                ),
            )
        )
    sections.append(f"({len(result.seeds)} seeds per point)")
    return "\n\n".join(sections)
