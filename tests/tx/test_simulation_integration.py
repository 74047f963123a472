"""Transactions through the simulation engine: GC exclusion and consistency."""

import pytest

from repro.core.estimators import OracleEstimator
from repro.core.fixed import FixedRatePolicy
from repro.core.saga import SagaPolicy
from repro.events import (
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    PointerWriteEvent,
    RootEvent,
)
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage.heap import StoreConfig
from repro.storage.validation import validate_store
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


def _config(**kwargs):
    defaults = dict(store=STORE, preamble_collections=0)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def test_no_collection_inside_transaction():
    """Overwrites inside an open transaction do not trigger collection; the
    deferred trigger fires right after commit."""

    def trace():
        yield CreateEvent(1, 50)
        yield RootEvent(1)
        # Pre-transaction garbage so the eventual collection has work.
        oid = 2
        for _ in range(5):
            yield CreateEvent(oid, 600)
            yield PointerWriteEvent(1, "x", oid)
            yield PointerWriteEvent(1, "x", None, dies=(oid,))
            oid += 1
        yield BeginTransactionEvent(1)
        for _ in range(20):
            yield CreateEvent(oid, 600)
            yield PointerWriteEvent(1, "x", oid)
            yield PointerWriteEvent(1, "x", None, dies=(oid,))
            oid += 1
        yield CommitTransactionEvent(1)
        # One more event so the post-commit trigger check runs.
        yield CreateEvent(oid, 100)
        yield PointerWriteEvent(1, "y", oid)

    sim = Simulation(policy=FixedRatePolicy(10), config=_config())
    result = sim.run(trace())
    # The rate-10 trigger would have fired at overwrite 10 and 20, both
    # inside the transaction. Deferral means every collection runs only
    # once all 25 overwrites (5 pre-transaction + 20 in-transaction) are
    # committed — so no record can show a mid-transaction clock value.
    assert result.summary.collections >= 1
    assert all(r.overwrite_clock >= 25 for r in result.collections)


def test_transactional_workload_runs_consistently():
    spec = TransactionalSpec(transactions=60, abort_probability=0.3)
    workload = TransactionalWorkload(spec, seed=1, initial_clusters=20)
    sim = Simulation(
        policy=SagaPolicy(garbage_fraction=0.15, estimator=OracleEstimator(), initial_interval=10),
        config=_config(validate_every=5),
    )
    result = sim.run(workload.events())
    store = result.store
    assert workload.aborted_transactions > 0
    assert workload.committed_transactions > 0
    assert result.summary.collections > 0
    # Death annotations stayed faithful through aborts and resurrections.
    assert store.check_death_annotations() == set()
    assert store.garbage.undeclared == 0
    assert validate_store(store).ok


def test_aborted_transactions_leave_no_policy_signal():
    """A workload whose every transaction aborts looks (to the policies'
    clocks) like nothing ever happened."""
    spec = TransactionalSpec(transactions=30, abort_probability=1.0)
    workload = TransactionalWorkload(spec, seed=2, initial_clusters=10)
    sim = Simulation(policy=FixedRatePolicy(10_000), config=_config())
    result = sim.run(workload.events())
    store = result.store
    assert workload.aborted_transactions == 30
    assert store.pointer_overwrites == 0
    assert store.actual_garbage_bytes == 0
    # Exactly the setup objects survive: registry + initial clusters.
    expected = 1 + 10 * spec.cluster_size
    assert len(store.placements) == expected
    assert validate_store(store).ok


def test_commit_only_equivalence():
    """With abort_probability 0 the transactional workload's final logical
    state matches a store where every operation simply committed."""
    spec = TransactionalSpec(transactions=40, abort_probability=0.0)
    workload = TransactionalWorkload(spec, seed=3, initial_clusters=15)
    sim = Simulation(policy=FixedRatePolicy(10_000), config=_config())
    result = sim.run(workload.events())
    store = result.store
    # Generator bookkeeping agrees with the store: every tracked cluster is
    # alive and rooted, every untracked one is dead or collected.
    for cluster in workload.clusters:
        head = cluster.members[0]
        assert store.placements.row(workload.registry_oid).pointers[cluster.slot] == head
        for member in cluster.members:
            assert not store.placements.row(member).dead
    assert store.check_death_annotations() == set()


def test_abort_mid_transaction_wrong_txid_raises():
    def trace():
        yield CreateEvent(1, 50)
        yield RootEvent(1)
        yield BeginTransactionEvent(1)
        yield CommitTransactionEvent(99)

    sim = Simulation(policy=FixedRatePolicy(100), config=_config())
    from repro.tx.manager import TransactionError

    with pytest.raises(TransactionError, match="mismatch"):
        sim.run(trace())
