"""Transactional synthetic workloads.

Wraps the grammar's linked-cluster operations
(:class:`~repro.workload.grammar.GrammarWorkload`: create a cluster, delete
one) in transactions with a configurable abort rate. The generator keeps its
own cluster bookkeeping transactional too: when it decides a transaction
will abort, it snapshots its logical state at ``begin`` and restores it at
``abort``, so the trace remains consistent with the (rolled-back) database.

This is the workload the transaction substrate is evaluated with: aborted
deletions *resurrect* objects (their garbage never existed), aborted
creations vanish, and garbage collection only runs between transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.events import TraceSink
from repro.workload.grammar import (
    Fixed,
    GrammarWorkload,
    OpMix,
    PhaseBlock,
    WorkloadConfig,
)


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


class TransactionalWorkload(GrammarWorkload):
    """Generates a transactional churn trace over linked clusters.

    Its config is one fixed-size ``tx-churn`` block of even create/delete
    churn; :meth:`steps` runs that block's operations in transactions.
    """

    def __init__(
        self,
        spec: TransactionalSpec,
        seed: int = 0,
        initial_clusters: int = 40,
    ) -> None:
        churn = PhaseBlock(
            name="tx-churn",
            operations=spec.transactions * spec.ops_per_transaction,
            mix=OpMix(create=1.0, delete=1.0, access=0.0),
            cluster_size=Fixed(spec.cluster_size),
            object_size=Fixed(spec.object_size),
        )
        config = WorkloadConfig(
            name="transactional", phases=(churn,), initial_clusters=initial_clusters
        )
        super().__init__(config, seed)
        self.spec = spec
        self.initial_clusters = initial_clusters
        self.aborted_transactions = 0
        self.committed_transactions = 0

    def canonical_material(self) -> dict:
        """Content-addressing material (:class:`repro.workload.base.Workload`)."""
        return {
            "workload": "transactional",
            "spec": self.spec,
            "initial_clusters": self.initial_clusters,
            "seed": self.seed,
        }

    def steps(self, out: TraceSink) -> Iterator[None]:
        """Emit the trace into ``out``, yielding after every sink call: the
        registry and initial clusters, then the transactions."""
        spec, rng = self.spec, self.rng
        churn = self.config.phases[0]
        out.phase("tx-setup")
        yield from self._create_registry(out)
        for _ in range(self.initial_clusters):
            yield from self._create_cluster(churn, out)

        out.phase("tx-churn")
        for txid in range(1, spec.transactions + 1):
            will_abort = rng.random() < spec.abort_probability
            # This generator never trims a cluster, so the members lists are
            # never changed in place and a shallow copy is the whole state.
            # Oids and slots of rolled-back objects are NOT reused: the store
            # forbids recreating an existing oid, and within one run fresh ids
            # keep the trace unambiguous.
            saved = list(self.clusters) if will_abort else None

            out.begin(txid)
            for _ in range(spec.ops_per_transaction):
                if self.clusters and rng.random() < 0.5:
                    yield from self._delete_cluster(churn, out)
                else:
                    yield from self._create_cluster(churn, out)
            if will_abort:
                out.abort(txid)
                self.clusters = saved
                self.aborted_transactions += 1
            else:
                out.commit(txid)
                self.committed_transactions += 1
