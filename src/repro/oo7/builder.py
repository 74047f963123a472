"""Convenience builders for OO7 databases.

Most users drive a full application trace through the simulator; these
helpers materialise one phase at a time into a store — GenDB for tests,
examples and Table 1 verification, the reorganisations for the §3.4
clustering ablation. They take the simulator's route too: a phase is cut
into a compiled trace and replayed under a policy that never collects.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.fixed import FixedRatePolicy
from repro.events import TraceSink
from repro.oo7.config import OO7Config
from repro.oo7.schema import Oo7Graph
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.object_model import ObjectKind
from repro.workload.compiled import TraceBuilder


def apply_steps(
    store: ObjectStore, steps: Callable[[TraceSink], Iterator[None]]
) -> None:
    """Replay a step generator's trace onto ``store`` without collecting.

    ``steps(out)`` is cut whole into a compiled trace before the store is
    touched; the replay is a simulation run whose trigger never fires.
    """
    builder = TraceBuilder()
    for _ in steps(builder):
        pass
    policy = FixedRatePolicy(math.inf)
    config = SimulationConfig(store=store.config)
    Simulation(policy, config=config, store=store).run(builder.finish())


@dataclass
class BuiltDatabase:
    """A freshly generated OO7 database and its generator-side graph."""

    store: ObjectStore
    graph: Oo7Graph
    config: OO7Config

    def kind_counts(self) -> dict[ObjectKind, int]:
        """Object counts by kind (for Table 1 verification)."""
        counts: dict[ObjectKind, int] = {}
        for obj in self.store.placements.rows():
            counts[obj.kind] = counts.get(obj.kind, 0) + 1
        return counts

    def average_object_size(self) -> float:
        table = self.store.placements
        if not table:
            return 0.0
        return sum(obj.size for obj in table.rows()) / len(table)

    def atomic_part_in_degree(self) -> float:
        """Mean number of pointers targeting each atomic part.

        The paper quotes "an approximate average connectivity of four (i.e.,
        each object has four pointers pointing to it)" for connectivity 3:
        one composite reference plus ``NumConnPerAtomic`` incoming
        connections.
        """
        objects = list(self.store.placements.rows())
        parts = [o.oid for o in objects if o.kind == ObjectKind.ATOMIC_PART]
        if not parts:
            return 0.0
        in_degree = dict.fromkeys(parts, 0)
        for obj in objects:
            for target in obj.pointers.values():
                if target in in_degree:
                    in_degree[target] += 1
        return sum(in_degree.values()) / len(parts)


def build_database(
    config: OO7Config,
    store_config: StoreConfig | None = None,
    seed: int | None = None,
) -> BuiltDatabase:
    """Run GenDB into a fresh store and return it with its logical graph."""
    store = ObjectStore(store_config)
    graph = Oo7Graph(config, rng=random.Random(config.seed if seed is None else seed))
    apply_steps(store, graph.generate_steps)
    return BuiltDatabase(store=store, graph=graph, config=config)
