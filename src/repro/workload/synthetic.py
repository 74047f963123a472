"""Synthetic application traces with configurable phase behaviour.

The paper's traces come from one OO7 application; the authors note their
policies should adapt to *any* mix of behaviours. This module generates
controlled synthetic traces for studying responsiveness and accuracy outside
OO7 — and stands in for the authors' unavailable raw trace files (see the
substitution note in DESIGN.md).

The synthetic database is a registry of linked clusters: the registry object
holds one pointer per cluster head, and each cluster is a singly linked chain
of member objects. This shape makes garbage-per-overwrite directly tunable:

* deleting a whole cluster costs **one** overwrite and frees
  ``cluster_size × object_size`` bytes (the §2.1 "large connected structure
  detached by a single overwrite"),
* trimming a chain suffix costs one overwrite for a configurable fraction of
  the cluster.

A workload is a sequence of :class:`SyntheticPhase` specs; each phase runs a
number of *operations* drawn from its behaviour mix.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.events import TraceEvent, TraceSink, stream_events
from repro.storage.object_model import ObjectId, ObjectKind
from repro.workload.grammar import draw_table


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
        if self.operations < 0:
            raise ValueError(f"operations must be non-negative, got {self.operations}")
        weights = (
            self.create_weight,
            self.delete_weight,
            self.trim_weight,
            self.access_weight,
            self.idle_weight,
        )
        if any(w < 0 for w in weights):
            raise ValueError("operation weights must be non-negative")
        if sum(weights) <= 0:
            raise ValueError("at least one operation weight must be positive")
        if self.cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {self.cluster_size}")
        if self.object_size < 1:
            raise ValueError(f"object_size must be >= 1, got {self.object_size}")
        if not 0.0 < self.trim_fraction < 1.0:
            raise ValueError(f"trim_fraction must be in (0, 1), got {self.trim_fraction}")


@dataclass(eq=False)
class _Cluster:
    """Generator-side bookkeeping for one linked cluster."""

    slot: str
    members: list[ObjectId] = field(default_factory=list)  # head first


class _LinkedClusters:
    """The registry of linked clusters, and the emitters both synthetic
    generators share: this one and
    :class:`~repro.workload.transactional.TransactionalWorkload`.

    Each emitter writes one operation into a
    :class:`~repro.events.TraceSink` and returns; the caller's step
    generator yields after it.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self._next_oid: ObjectId = 1
        self._next_slot = 0
        self.registry_oid: Optional[ObjectId] = None
        self.clusters: list[_Cluster] = []
        #: Object sizes by oid, for trace statistics and tests.
        self.object_sizes: dict[ObjectId, int] = {}

    def _new_oid(self, size: int) -> ObjectId:
        oid = self._next_oid
        self._next_oid += 1
        self.object_sizes[oid] = size
        return oid

    def _create_registry(self, out: TraceSink) -> None:
        """Create the registry object and make it a database root."""
        self.registry_oid = self._new_oid(64)
        out.create(self.registry_oid, 64, ObjectKind.GENERIC)
        out.root(self.registry_oid)

    def _create_cluster(
        self, cluster_size: int, object_size: int, out: TraceSink
    ) -> None:
        """Create a chain tail-first, then root its head in the registry.

        Tail-first creation means every member's successor already exists
        when the member is created, so only the not-yet-linked frontier
        object ever depends on the store's allocation pinning.
        """
        members: list[ObjectId] = []
        successor: Optional[ObjectId] = None
        for _ in range(cluster_size):
            oid = self._new_oid(object_size)
            pointers = (("next", successor),) if successor is not None else ()
            out.create(oid, object_size, ObjectKind.GENERIC, pointers)
            members.append(oid)
            successor = oid
        members.reverse()  # head first

        slot = f"cluster{self._next_slot}"
        self._next_slot += 1
        out.write(self.registry_oid, slot, members[0])
        self.clusters.append(_Cluster(slot=slot, members=members))

    def _delete_cluster(self, out: TraceSink) -> None:
        """Detach an entire cluster with a single overwrite."""
        if not self.clusters:
            return
        cluster = self.clusters.pop(self.rng.randrange(len(self.clusters)))
        out.write(self.registry_oid, cluster.slot, None, tuple(cluster.members))


_OPERATIONS = ("create", "delete", "trim", "access", "idle")


class SyntheticWorkload(_LinkedClusters):
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
        if not phases:
            raise ValueError("at least one phase is required")
        if initial_clusters < 0:
            raise ValueError(f"initial_clusters must be non-negative, got {initial_clusters}")
        super().__init__(seed)
        self.phases = list(phases)
        self.initial_clusters = initial_clusters

    def canonical_material(self) -> dict:
        """Content-addressing material (:class:`repro.workload.base.WorkloadSpec`)."""
        return {
            "workload": "synthetic",
            "phases": self.phases,
            "initial_clusters": self.initial_clusters,
            "seed": self.seed,
        }

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------

    def events(self) -> Iterator[TraceEvent]:
        """The full synthetic trace (one-shot)."""
        return stream_events(self.steps)

    def steps(self, out: TraceSink) -> Iterator[None]:
        """The same trace emitted into ``out``, yielding after every
        operation: the registry, the initial clusters, then each phase's
        marker and operations."""
        self._create_registry(out)
        first = self.phases[0]
        for _ in range(self.initial_clusters):
            self._create_cluster(first.cluster_size, first.object_size, out)
            yield
        for phase in self.phases:
            out.phase(phase.name)
            yield from self._run_phase(phase, out)

    def _run_phase(self, phase: SyntheticPhase, out: TraceSink) -> Iterator[None]:
        cum_weights, total, hi = draw_table(
            [
                phase.create_weight,
                phase.delete_weight,
                phase.trim_weight,
                phase.access_weight,
                phase.idle_weight,
            ]
        )
        random_ = self.rng.random
        for _ in range(phase.operations):
            op = _OPERATIONS[bisect(cum_weights, random_() * total, 0, hi)]
            if op == "create":
                self._create_cluster(phase.cluster_size, phase.object_size, out)
            elif op == "delete":
                self._delete_cluster(out)
            elif op == "trim":
                self._trim_cluster(phase.trim_fraction, out)
            elif op == "access":
                self._access_cluster(out)
            else:
                out.idle()
            yield

    # ------------------------------------------------------------------
    # Operations only this generator has
    # ------------------------------------------------------------------

    def _trim_cluster(self, fraction: float, out: TraceSink) -> None:
        """Cut off a suffix of a cluster with a single overwrite."""
        candidates = [c for c in self.clusters if len(c.members) >= 2]
        if not candidates:
            return
        cluster = self.rng.choice(candidates)
        keep = max(1, int(len(cluster.members) * (1.0 - fraction)))
        dead = cluster.members[keep:]
        if not dead:
            return
        out.write(cluster.members[keep - 1], "next", None, tuple(dead))
        del cluster.members[keep:]

    def _access_cluster(self, out: TraceSink) -> None:
        """Read every member of a random cluster, head to tail."""
        if not self.clusters:
            return
        cluster = self.rng.choice(self.clusters)
        access = out.access
        for oid in cluster.members:
            access(oid)
