"""Synthetic application traces with configurable phase behaviour.

The paper's traces come from one OO7 application; the authors note their
policies should adapt to *any* mix of behaviours. This module generates
controlled synthetic traces for studying responsiveness and accuracy outside
OO7 — and stands in for the authors' unavailable raw trace files (see the
substitution note in DESIGN.md).

The synthetic database is the grammar's registry of linked clusters
(:mod:`repro.workload.grammar`): the registry object holds one pointer per
cluster head, and each cluster is a singly linked chain of member objects.
This shape makes garbage-per-overwrite directly tunable:

* deleting a whole cluster costs **one** overwrite and frees
  ``cluster_size × object_size`` bytes (the §2.1 "large connected structure
  detached by a single overwrite"),
* trimming a chain suffix costs one overwrite for a configurable fraction of
  the cluster.

A workload is a sequence of :class:`SyntheticPhase` specs; each phase runs a
number of *operations* drawn from its behaviour mix. A phase is a grammar
:class:`~repro.workload.grammar.PhaseBlock` with fixed sizes and no skew
(:meth:`SyntheticPhase.block`), and :class:`SyntheticWorkload` is the grammar
interpreter run over those blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workload.grammar import (
    Fixed,
    GrammarWorkload,
    OpMix,
    PhaseBlock,
    WorkloadConfig,
)


@dataclass(frozen=True)
class SyntheticPhase:
    """One phase of a synthetic application.

    Attributes:
        name: Phase label (emitted as a phase marker).
        operations: Number of operations to perform.
        create_weight / delete_weight / trim_weight / access_weight /
        idle_weight: Relative likelihood of each operation kind.
        cluster_size: Members per newly created cluster in this phase.
        object_size: Bytes per member object created in this phase.
        trim_fraction: Fraction of a cluster a trim operation cuts off.
    """

    name: str
    operations: int
    create_weight: float = 1.0
    delete_weight: float = 1.0
    trim_weight: float = 0.0
    access_weight: float = 2.0
    idle_weight: float = 0.0
    cluster_size: int = 8
    object_size: int = 128
    trim_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {self.cluster_size}")
        if self.object_size < 1:
            raise ValueError(f"object_size must be >= 1, got {self.object_size}")
        self.block()  # the block's own checks validate everything else

    def block(self) -> PhaseBlock:
        """This phase as a grammar block: the five weights with ``update``
        and ``pointer_churn`` at zero, fixed sizes, uniform cluster picks."""
        return PhaseBlock(
            name=self.name,
            operations=self.operations,
            mix=OpMix(
                create=self.create_weight,
                delete=self.delete_weight,
                trim=self.trim_weight,
                access=self.access_weight,
                idle=self.idle_weight,
            ),
            cluster_size=Fixed(self.cluster_size),
            object_size=Fixed(self.object_size),
            trim_fraction=self.trim_fraction,
        )


class SyntheticWorkload(GrammarWorkload):
    """Generates a synthetic trace from a sequence of phase specs.

    Args:
        phases: Phase specifications, run in order.
        seed: Seed for all randomised choices.
        initial_clusters: Clusters created up front (before the first phase)
            so delete/access operations have material to work on immediately.
    """

    def __init__(
        self,
        phases: list[SyntheticPhase],
        seed: int = 0,
        initial_clusters: int = 16,
    ) -> None:
        config = WorkloadConfig(
            name="synthetic",
            phases=tuple(phase.block() for phase in phases),
            initial_clusters=initial_clusters,
        )
        super().__init__(config, seed)
        self.phases = list(phases)
        self.initial_clusters = initial_clusters

    def canonical_material(self) -> dict:
        """Content-addressing material (:class:`repro.workload.base.Workload`)."""
        return {
            "workload": "synthetic",
            "phases": self.phases,
            "initial_clusters": self.initial_clusters,
            "seed": self.seed,
        }
