"""Transactional synthetic workloads.

Wraps the linked-cluster operations it shares with
:class:`~repro.workload.synthetic.SyntheticWorkload` in transactions with a
configurable abort rate. The generator keeps its own cluster bookkeeping
transactional too: when it decides a transaction will abort, it snapshots
its logical state at ``begin`` and restores it at ``abort``, so the trace
remains consistent with the (rolled-back) database.

This is the workload the transaction substrate is evaluated with: aborted
deletions *resurrect* objects (their garbage never existed), aborted
creations vanish, and garbage collection only runs between transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.events import TraceEvent, TraceSink, stream_events
from repro.workload.synthetic import _LinkedClusters


@dataclass(frozen=True)
class TransactionalSpec:
    """Shape of a transactional churn workload.

    Attributes:
        transactions: Number of transactions to run.
        ops_per_transaction: Cluster operations per transaction.
        abort_probability: Chance a transaction ends in abort.
        cluster_size: Members per cluster.
        object_size: Bytes per member object.
    """

    transactions: int = 100
    ops_per_transaction: int = 4
    abort_probability: float = 0.2
    cluster_size: int = 6
    object_size: int = 120

    def __post_init__(self) -> None:
        if self.transactions < 1:
            raise ValueError("transactions must be >= 1")
        if self.ops_per_transaction < 1:
            raise ValueError("ops_per_transaction must be >= 1")
        if not 0.0 <= self.abort_probability <= 1.0:
            raise ValueError("abort_probability must be in [0, 1]")
        if self.cluster_size < 1 or self.object_size < 1:
            raise ValueError("cluster_size and object_size must be >= 1")


class TransactionalWorkload(_LinkedClusters):
    """Generates a transactional churn trace over linked clusters."""

    def __init__(
        self,
        spec: TransactionalSpec,
        seed: int = 0,
        initial_clusters: int = 40,
    ) -> None:
        if initial_clusters < 0:
            raise ValueError("initial_clusters must be non-negative")
        super().__init__(seed)
        self.spec = spec
        self.initial_clusters = initial_clusters
        self.aborted_transactions = 0
        self.committed_transactions = 0

    def canonical_material(self) -> dict:
        """Content-addressing material (:class:`repro.workload.base.WorkloadSpec`)."""
        return {
            "workload": "transactional",
            "spec": self.spec,
            "initial_clusters": self.initial_clusters,
            "seed": self.seed,
        }

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------

    def events(self) -> Iterator[TraceEvent]:
        """The full transactional trace (one-shot)."""
        return stream_events(self.steps)

    def steps(self, out: TraceSink) -> Iterator[None]:
        """The same trace emitted into ``out``, yielding after every
        cluster operation."""
        spec, rng = self.spec, self.rng
        out.phase("tx-setup")
        self._create_registry(out)
        for _ in range(self.initial_clusters):
            self._create_cluster(spec.cluster_size, spec.object_size, out)
            yield

        out.phase("tx-churn")
        for txid in range(1, spec.transactions + 1):
            will_abort = rng.random() < spec.abort_probability
            snapshot = self._snapshot() if will_abort else None

            out.begin(txid)
            for _ in range(spec.ops_per_transaction):
                if self.clusters and rng.random() < 0.5:
                    self._delete_cluster(out)
                else:
                    self._create_cluster(spec.cluster_size, spec.object_size, out)
                yield
            if will_abort:
                out.abort(txid)
                self._restore(snapshot)
                self.aborted_transactions += 1
            else:
                out.commit(txid)
                self.committed_transactions += 1

    # ------------------------------------------------------------------
    # Logical-state snapshots for aborted transactions
    # ------------------------------------------------------------------

    def _snapshot(self):
        # This generator never trims a cluster, so the members lists are
        # never changed in place and a shallow copy is the whole state.
        return (list(self.clusters), self._next_oid, self._next_slot)

    def _restore(self, snapshot) -> None:
        clusters, next_oid, next_slot = snapshot
        self.clusters = clusters
        # Oids and slots of rolled-back objects are NOT reused: the store
        # forbids recreating an existing oid, and within one run fresh ids
        # keep the trace unambiguous.
        self._next_oid = max(self._next_oid, next_oid)
        self._next_slot = max(self._next_slot, next_slot)
