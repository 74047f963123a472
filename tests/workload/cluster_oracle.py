"""The linked-cluster generators as two hand-written loops: a trace oracle.

Production generates the synthetic and transactional traces with the
grammar interpreter (:class:`repro.workload.grammar.GrammarWorkload`): a
synthetic phase is a :class:`~repro.workload.grammar.PhaseBlock` with fixed
sizes, no skew and no ``update`` / ``pointer_churn`` weight, and the
transactional loop drives the grammar's cluster operations with one
fixed-size block. This module is the shape they replaced, written out
directly: a registry of linked clusters, a five-operation phase loop that
picks clusters with ``rng.choice``, and the transactional begin/abort loop
with its logical-state snapshots. Tests require ``compile_trace`` of both
forms to be byte-equal.
"""

import random
from bisect import bisect
from itertools import accumulate

from repro.storage.object_model import ObjectKind

_OPERATIONS = ("create", "delete", "trim", "access", "idle")


class _Cluster:
    def __init__(self, slot, members):
        self.slot = slot
        self.members = members  # head first


class LinkedClusters:
    """The registry of linked clusters and the operations on it. Each
    operation writes into a :class:`~repro.events.TraceSink` and returns."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        self.next_oid = 1
        self.next_slot = 0
        self.registry_oid = None
        self.clusters = []

    def new_oid(self):
        oid = self.next_oid
        self.next_oid += 1
        return oid

    def create_registry(self, out):
        self.registry_oid = self.new_oid()
        out.create(self.registry_oid, 64, ObjectKind.GENERIC)
        out.root(self.registry_oid)

    def create_cluster(self, cluster_size, object_size, out):
        """A chain created tail-first, then its head rooted in the registry."""
        members = []
        successor = None
        for _ in range(cluster_size):
            oid = self.new_oid()
            pointers = (("next", successor),) if successor is not None else ()
            out.create(oid, object_size, ObjectKind.GENERIC, pointers)
            members.append(oid)
            successor = oid
        members.reverse()
        slot = f"cluster{self.next_slot}"
        self.next_slot += 1
        out.write(self.registry_oid, slot, members[0])
        self.clusters.append(_Cluster(slot, members))

    def delete_cluster(self, out):
        if not self.clusters:
            return
        cluster = self.clusters.pop(self.rng.randrange(len(self.clusters)))
        out.write(self.registry_oid, cluster.slot, None, tuple(cluster.members))

    def trim_cluster(self, fraction, out):
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

    def access_cluster(self, out):
        if not self.clusters:
            return
        for oid in self.rng.choice(self.clusters).members:
            out.access(oid)


class OracleSynthetic(LinkedClusters):
    """A :class:`~repro.workload.synthetic.SyntheticWorkload` trace: the
    registry, ``initial_clusters`` clusters of the first phase's shape, then
    each phase's marker and operations, drawn from its five weights."""

    def __init__(self, phases, seed=0, initial_clusters=16):
        super().__init__(seed)
        self.phases = list(phases)
        self.initial_clusters = initial_clusters

    def steps(self, out):
        self.create_registry(out)
        first = self.phases[0]
        for _ in range(self.initial_clusters):
            self.create_cluster(first.cluster_size, first.object_size, out)
            yield
        for phase in self.phases:
            out.phase(phase.name)
            weights = [
                phase.create_weight,
                phase.delete_weight,
                phase.trim_weight,
                phase.access_weight,
                phase.idle_weight,
            ]
            cum_weights = list(accumulate(weights))
            total = cum_weights[-1] + 0.0
            for _ in range(phase.operations):
                x = self.rng.random() * total
                op = _OPERATIONS[bisect(cum_weights, x, 0, len(weights) - 1)]
                if op == "create":
                    self.create_cluster(phase.cluster_size, phase.object_size, out)
                elif op == "delete":
                    self.delete_cluster(out)
                elif op == "trim":
                    self.trim_cluster(phase.trim_fraction, out)
                elif op == "access":
                    self.access_cluster(out)
                else:
                    out.idle()
                yield


class OracleTransactional(LinkedClusters):
    """A :class:`~repro.workload.transactional.TransactionalWorkload` trace:
    create/delete churn in transactions; an aborting transaction restores
    the cluster list it began with, but never reuses an oid or a slot."""

    def __init__(self, spec, seed=0, initial_clusters=40):
        super().__init__(seed)
        self.spec = spec
        self.initial_clusters = initial_clusters
        self.aborted_transactions = 0
        self.committed_transactions = 0

    def steps(self, out):
        spec, rng = self.spec, self.rng
        out.phase("tx-setup")
        self.create_registry(out)
        for _ in range(self.initial_clusters):
            self.create_cluster(spec.cluster_size, spec.object_size, out)
            yield
        out.phase("tx-churn")
        for txid in range(1, spec.transactions + 1):
            will_abort = rng.random() < spec.abort_probability
            saved = list(self.clusters)
            out.begin(txid)
            for _ in range(spec.ops_per_transaction):
                if self.clusters and rng.random() < 0.5:
                    self.delete_cluster(out)
                else:
                    self.create_cluster(spec.cluster_size, spec.object_size, out)
                yield
            if will_abort:
                out.abort(txid)
                self.clusters = saved
                self.aborted_transactions += 1
            else:
                out.commit(txid)
                self.committed_transactions += 1
