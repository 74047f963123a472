"""Property: the store's one object table reads as a dict of objects.

The store keeps every object as one row of oid-indexed columns
(``ObjectTable``), read back as ``StoredObject`` snapshots by ``row`` and
``rows``. Here a
generated program mutates a store through every route that writes a row —
creates and pointer writes through the fused replay kernels
(``Simulation.run`` over one-event traces), deaths declared by a write's
``dies`` and by ``declare_dead``, transactions that abort (``expunge``,
``resurrect``, ``undo_pointer_write``), checkpoints and partition
collections — over dense, negative and ``>= DENSE_CEILING`` oids.

After every step the table's rows — through ``rows()``, ``row(oid)`` and
``locate(oid)`` — must equal a plain dict of ``StoredObject`` kept beside
it, ``store.live_bytes`` must be that dict's not-dead size sum, and every
checkpoint taken so far must still read, pointers and dead flags alike, as
that dict did at its capture: a write after a checkpoint that skips the
copy-on-write copy, or a negative oid sent down the dense columns, shows
up as a difference.

A second test collects one partition of negative, dense and sparse oids
with the production collector and with ``tests/collector_oracle.py``: the
two must agree on survivors, reclaimed set and ``ordered_fields``.
"""

import copy

from collector_oracle import breadth_first_order as oracle_order
from collector_oracle import collect as oracle_collect
from collector_oracle import ordered_fields
from hypothesis import given, settings
from hypothesis import strategies as st
from stored import objects

from repro.core.fixed import FixedRatePolicy
from repro.events import CreateEvent, PointerWriteEvent
from repro.gc.collector import CopyingCollector
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.object_model import ObjectKind, StoredObject
from repro.storage.objtable import DENSE_CEILING
from repro.storage.validation import validate_store
from repro.tx.recovery import build_checkpoint

#: 256-byte partitions: a few objects each, so most edges cross a boundary.
STORE = StoreConfig(page_size=64, partition_pages=4, buffer_pages=4)
OIDS = (
    *range(1, 13),
    *range(-4, 0),
    DENSE_CEILING,
    DENSE_CEILING + 5,
)
KINDS = (ObjectKind.GENERIC, ObjectKind.ATOMIC_PART, ObjectKind.CONNECTION)
PICK = st.integers(min_value=0, max_value=len(OIDS) - 1)
SLOT = st.sampled_from(["a", "b", "c"])

STEPS = st.one_of(
    st.tuples(st.just("create"), PICK, st.integers(8, 90), st.sampled_from(KINDS),
              st.one_of(st.none(), PICK)),
    st.tuples(st.just("create"), PICK, st.integers(8, 90), st.sampled_from(KINDS),
              st.one_of(st.none(), PICK)),
    st.tuples(st.just("write"), PICK, SLOT, st.one_of(st.none(), PICK),
              st.lists(PICK, max_size=2)),
    st.tuples(st.just("write"), PICK, SLOT, st.one_of(st.none(), PICK),
              st.lists(PICK, max_size=2)),
    st.tuples(st.just("dead"), PICK),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("abort"), PICK, PICK, SLOT, PICK),
    st.tuples(st.just("collect"), st.integers(min_value=0, max_value=20)),
)


def _row_view(capture):
    """What a captured table holds, row by row."""
    return {oid: row for oid, *row in capture.rows()}


def _shadow_view(shadow):
    return {oid: [o.size, o.kind, o.dead, o.pointers] for oid, o in shadow.items()}


class _Program:
    """One store driven through the simulation's fused kernels, the
    transaction manager and the collector, with its dict shadow."""

    def __init__(self):
        self.sim = Simulation(
            policy=FixedRatePolicy(1e12),
            config=SimulationConfig(store=STORE, preamble_collections=0),
        )
        self.store = self.sim.store
        self.shadow: dict = {}
        self.checkpoints: list = []
        self.txid = 0

    def step(self, op):
        kind = op[0]
        shadow = self.shadow
        if kind == "create":
            oid, target = OIDS[op[1]], None if op[4] is None else OIDS[op[4]]
            if oid in shadow or (target is not None and target not in shadow):
                return
            pointers = () if target is None else (("p", target),)
            self.sim.run([CreateEvent(oid, op[2], op[3], pointers)])
            shadow[oid] = StoredObject(oid, op[2], op[3], dict(pointers))
        elif kind == "write":
            src = OIDS[op[1]]
            target = None if op[3] is None else OIDS[op[3]]
            if src not in shadow or (target is not None and target not in shadow):
                return
            dies = tuple(OIDS[i] for i in op[4])
            self.sim.run([PointerWriteEvent(src, op[2], target, dies)])
            shadow[src].pointers[op[2]] = target
            for victim in dies:
                if victim in shadow:
                    shadow[victim].dead = True
        elif kind == "dead":
            oid = OIDS[op[1]]
            self.store.declare_dead(oid)
            if oid in shadow:
                shadow[oid].dead = True
        elif kind == "checkpoint":
            snapshot = build_checkpoint(self.store, 0)
            self.checkpoints.append((snapshot, _shadow_view(copy.deepcopy(shadow))))
        elif kind == "abort":
            self._aborted(OIDS[op[1]], OIDS[op[2]], op[3], OIDS[op[4]])
        else:
            self._collect(op[1])

    def _aborted(self, fresh, src, slot, victim):
        """A transaction that creates, links and kills, then aborts: its
        undo expunges, resurrects and reverts a pointer write."""
        if fresh in self.shadow or src not in self.shadow:
            return
        tx = self.sim.tx
        self.txid += 1
        tx.begin(self.txid)
        tx.create(size=24, oid=fresh)
        tx.write_pointer(src, slot, fresh, dies=(victim,))
        tx.write_pointer(src, slot, None)
        tx.abort(self.txid)

    def _collect(self, index):
        store = self.store
        if not store.partitions:
            return
        pid = index % len(store.partitions)
        residents = set(store.partitions[pid].residents)
        roots = sorted(store.partition_roots(pid))
        survivors = oracle_order(self.shadow, roots, within=residents)
        self.sim.collector.collect(pid)
        for oid in residents - set(survivors):
            del self.shadow[oid]

    def check(self):
        table, shadow = self.store.placements, self.shadow
        rows = objects(self.store)
        assert len(table) == len(rows) == len(shadow)
        assert rows == shadow
        for oid in OIDS:
            assert table.row(oid) == shadow.get(oid)
            assert (oid in table) == (oid in shadow)
            assert (table.locate(oid) is None) == (oid not in shadow)
        live = sum(obj.size for obj in shadow.values() if not obj.dead)
        assert self.store.live_bytes == live
        for snapshot, held in self.checkpoints:
            assert _row_view(snapshot.table) == held


@given(steps=st.lists(STEPS, min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_the_table_reads_as_its_dict_shadow_and_checkpoints_hold(steps):
    program = _Program()
    for op in steps:
        program.step(op)
        program.check()
    validate_store(program.store)


def _mixed_partition(store):
    """One 256-byte partition of negative, dense and sparse oids: a chain
    from a root, a cycle nothing reaches, a pinned object, declared and
    undeclared garbage, and an edge into it from the next partition."""
    low, sparse = -7, DENSE_CEILING + 3
    for oid in (low, 3, sparse, -2, 9, DENSE_CEILING, 5, -9):
        store.create(size=24, oid=oid)
    store.register_root(low)
    store.write_pointer(low, "next", 3)
    store.write_pointer(3, "next", sparse)
    store.write_pointer(sparse, "next", -2)
    store.write_pointer(9, "loop", DENSE_CEILING)  # an unreached cycle
    store.write_pointer(DENSE_CEILING, "loop", 9)
    store.write_pointer(-2, "dead", 5)
    store.write_pointer(-2, "dead", None, dies=(5,))
    store.create(size=240, oid=40)  # fills partition 1
    store.register_root(40)
    store.write_pointer(40, "in", -9)  # remembered: -9 survives
    assert {store.partition_of(oid) for oid in (low, 3, sparse, -2, 9, 5, -9)} == {0}
    return store


def test_overflow_oids_collect_as_the_oracle_collects():
    produced = _mixed_partition(ObjectStore(STORE))
    reference = _mixed_partition(ObjectStore(STORE))
    assert ordered_fields(produced) == ordered_fields(reference)
    residents = set(produced.partitions[0].residents)
    collector = CopyingCollector(produced)
    survivors = collector.prepare(0)[0]
    assert survivors == oracle_order(
        objects(reference),
        sorted(reference.partition_roots(0)),
        within=reference.partitions[0].residents,
    )
    assert survivors == [-9, -7, 3, DENSE_CEILING + 3, -2]
    assert collector.collect(0) == oracle_collect(CopyingCollector(reference), 0)
    assert ordered_fields(produced) == ordered_fields(reference)
    assert residents - set(produced.partitions[0].residents) == {9, DENSE_CEILING, 5}
    validate_store(produced)
