"""Table 1: OO7 database parameters, verified against generated databases.

Prints the Small' and Small parameter columns side by side (as in the
paper), then generates a Small' database at each connectivity and verifies
the emergent quantities the paper quotes: object population, database size
range across connectivities, atomic-part in-degree (≈ connectivity + 1),
and average object size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import DEFAULT_CONFIG
from repro.oo7.builder import build_database
from repro.oo7.config import SMALL, OO7Config
from repro.sim.report import format_table


@dataclass(frozen=True)
class GeneratedStats:
    connectivity: int
    objects: int
    db_bytes: int
    avg_object_size: float
    part_in_degree: float


@dataclass
class Table1Result:
    small_prime: OO7Config
    small: OO7Config
    generated: list[GeneratedStats]


#: (label, Small' accessor, Small accessor) rows exactly as in Table 1.
_PARAMETER_ROWS = (
    ("NumAtomicPerComp", "num_atomic_per_comp"),
    ("NumConnPerAtomic", "num_conn_per_atomic"),
    ("DocumentSize (bytes)", "document_size"),
    ("ManualSize (kbytes)", "manual_size"),
    ("NumCompPerModule", "num_comp_per_module"),
    ("NumAssmPerAssm", "num_assm_per_assm"),
    ("NumAssmLevels", "num_assm_levels"),
    ("NumCompPerAssm", "num_comp_per_assm"),
    ("NumModules", "num_modules"),
)


def run_table1(
    config: OO7Config = DEFAULT_CONFIG, connectivities=(3, 6, 9), seed: int = 0
) -> Table1Result:
    generated = []
    for connectivity in connectivities:
        db = build_database(config.with_connectivity(connectivity), seed=seed)
        generated.append(
            GeneratedStats(
                connectivity=connectivity,
                objects=len(db.store.placements),
                db_bytes=db.store.db_size,
                avg_object_size=db.average_object_size(),
                part_in_degree=db.atomic_part_in_degree(),
            )
        )
    return Table1Result(small_prime=config, small=SMALL, generated=generated)


def format_table1(result: Table1Result) -> str:
    def value(config: OO7Config, attr: str):
        raw = getattr(config, attr)
        if attr == "manual_size":
            return raw // 1024
        if attr == "num_conn_per_atomic":
            return "3/6/9"
        return raw

    parameters = format_table(
        ["Parameter", "Small'", "Small"],
        [
            [label, value(result.small_prime, attr), value(result.small, attr)]
            for label, attr in _PARAMETER_ROWS
        ],
        title="Table 1: OO7 benchmark database parameters",
    )
    verification = format_table(
        ["connectivity", "objects", "DB size (MB)", "avg obj (B)", "part in-degree"],
        [
            [
                g.connectivity,
                g.objects,
                f"{g.db_bytes / 1e6:.2f}",
                f"{g.avg_object_size:.0f}",
                f"{g.part_in_degree:.2f}",
            ]
            for g in result.generated
        ],
        title="Generated Small' databases (verification)",
    )
    return "\n\n".join([parameters, verification])
