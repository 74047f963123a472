"""The pause's bulk kernels against the per-object collector they replaced.

Two stores are built by the same generated program; at every collection
one runs production (``CopyingCollector.collect``: single-probe Cheney
trace, ``plan_compaction``, bulk reclaim, offset scatter) and the other
``collector_oracle.collect`` (a ``deque`` search, one ``reclaim`` call per
dead object, one bump per survivor). They must agree on the result record
and on ``ordered_fields`` — every field, and every dict's and set's
iteration order — after each collection, on both numpy legs.

The same programs run the comparison through the collection scheduler,
with every collection applying the plan a pump built, and check at every
collection that the plan built from the trace's unreached set equals the
one the front door derives for the same survivors.

The programs reach what the kernels special-case: sparse and negative oids
(a non-empty overflow table turns the vectorised layout off), rollback
holes (compaction recovers more than it reclaims), cross-partition edges in
both directions, roots / allocation pins / remembered targets inside the
victim, garbage both declared and undeclared, null slots, self-loops, and
victims that are empty or wholly live.
"""

import pickle

import pytest
from collector_oracle import breadth_first_order as oracle_order
from collector_oracle import collect as oracle_collect
from collector_oracle import ordered_fields, per_object_compaction
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from stored import objects

from repro.core.fixed import FixedRatePolicy
from repro.gc import parallel
from repro.gc.collector import CopyingCollector
from repro.gc.parallel import ParallelCollectionScheduler
from repro.gc.selection import RoundRobinSelection
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage import heap
from repro.storage.heap import ObjectStore, StoreConfig, StoreError
from repro.storage.objtable import DENSE_CEILING, ObjectTable
from repro.storage.traversal import breadth_first_order
from repro.storage.validation import validate_store
from repro.workload.compiled import compile_trace

from presets import PresetWorkload
from serial_oracle import serially

#: 128-byte partitions (three or four objects each, so most edges cross a
#: boundary) or 512-byte ones (a victim holds enough objects for the
#: reclaim and residents orders to matter).
GEOMETRIES = [
    StoreConfig(page_size=32, partition_pages=pages, buffer_pages=3) for pages in (4, 16)
]

#: Hypothesis without its ``explain`` phase: on a failure that phase re-runs
#: the shrunk example under a line tracer, which on these programs takes
#: minutes and over a gigabyte before the report appears.
PHASES = tuple(phase for phase in Phase if phase is not Phase.explain)

#: Both layout/scatter legs when numpy is importable, else the one CI's
#: default ``tests`` job runs.
LEGS = [None] if heap._np is None else [heap._np, None]

SIZES = st.integers(min_value=8, max_value=60)
INDEX = st.integers(min_value=0, max_value=10_000)
SLOT = st.integers(min_value=0, max_value=2)
DENSE_OIDS = st.integers(min_value=1, max_value=400)
SPARSE_OIDS = st.one_of(
    st.integers(min_value=-200, max_value=-1),
    st.integers(min_value=DENSE_CEILING, max_value=DENSE_CEILING + 200),
)

# A create is usually linked from an older object straight away (which
# drops its allocation pin), so that overwriting the slot later — three
# slot names only — strands it: garbage the workload never declared.
CREATE = st.tuples(st.just("create"), SIZES, st.one_of(st.none(), INDEX, INDEX), SLOT)
OPS = st.one_of(
    CREATE,
    CREATE,
    CREATE,
    # A scratch object, a kept one behind it, then the scratch one rolled
    # back: unless first-fit split the pair, a hole below the fill.
    st.tuples(st.just("hole"), SIZES, SIZES),
    # Two objects that reference only each other: when first-fit puts them
    # in different partitions, garbage that partition collections keep
    # (each is a remembered target) and ``collect_global`` reclaims.
    st.tuples(st.just("cycle"), SIZES, SIZES),
    st.tuples(st.just("write"), INDEX, SLOT, st.one_of(st.none(), INDEX, INDEX)),
    st.tuples(st.just("write"), INDEX, SLOT, INDEX),
    # Null every slot that points at one object: a whole subgraph goes
    # unreachable at once, its own outgoing edges still in place.
    st.tuples(st.just("strand"), INDEX),
    st.tuples(st.just("strand"), INDEX),
    st.tuples(st.just("root"), INDEX),
    st.tuples(st.just("dead"), INDEX),
    st.tuples(st.just("collect"), INDEX),
    st.tuples(st.just("collect"), INDEX),
    # ``collect_global`` brings sorted survivors, and is the one caller that
    # reclaims residents other partitions still remember references to.
    st.tuples(st.just("global")),
)
CREATES = {"create": 1, "hole": 2, "cycle": 2}


@st.composite
def programs(draw):
    ops = draw(st.lists(OPS, min_size=20, max_size=120))
    ops.append(("collect", draw(INDEX)))
    creates = sum(CREATES.get(op[0], 0) for op in ops)
    pool = st.one_of(DENSE_OIDS, SPARSE_OIDS) if draw(st.booleans()) else DENSE_OIDS
    oids = draw(st.lists(pool, min_size=creates, max_size=creates, unique=True))
    return draw(st.sampled_from(GEOMETRIES)), ops, oids


def _mutate(stores, op, fresh):
    """Apply one non-collect op, resolved against the first store's state,
    identically to every store."""
    live = list(objects(stores[0]))
    kind = op[0]

    def pick(index):
        return live[index % len(live)]

    for store in stores:
        if kind == "create":
            store.create(size=op[1], oid=fresh[0])
            if live and op[2] is not None:
                store.write_pointer(pick(op[2]), f"s{op[3]}", fresh[0])
        elif kind == "hole":
            store.create(size=op[1], oid=fresh[0])
            store.create(size=op[2], oid=fresh[1])
            store.expunge(fresh[0])
        elif kind == "cycle":
            store.create(size=op[1], oid=fresh[0])
            store.create(size=op[2], oid=fresh[1])
            store.write_pointer(fresh[0], "s0", fresh[1])
            store.write_pointer(fresh[1], "s0", fresh[0])
        elif not live:
            continue
        elif kind == "write":
            target = None if op[3] is None else pick(op[3])
            store.write_pointer(pick(op[1]), f"s{op[2]}", target)
        elif kind == "strand":
            victim = pick(op[1])
            for src, obj in list(objects(store).items()):
                for slot, target in list(obj.pointers.items()):
                    if target == victim:
                        store.write_pointer(src, slot, None)
        elif kind == "root":
            store.register_root(pick(op[1]))
        elif kind == "dead":
            store.declare_dead(pick(op[1]))


@pytest.mark.parametrize("leg", LEGS, ids=lambda leg: "python" if leg is None else "numpy")
@settings(max_examples=120, deadline=None, phases=PHASES)
@given(program=programs())
def test_bulk_kernels_leave_the_store_the_oracle_leaves(leg, program):
    geometry, ops, oids = program
    fresh = iter(oids)
    produced, reference = ObjectStore(geometry), ObjectStore(geometry)
    collector, oracle = CopyingCollector(produced), CopyingCollector(reference)
    imported, heap._np = heap._np, leg
    try:
        for op in ops:
            if op[0] == "collect":
                if not produced.partitions:
                    continue
                pid = op[1] % len(produced.partitions)
                assert collector.collect(pid) == oracle_collect(oracle, pid)
            elif op[0] == "global":
                with per_object_compaction(reference):
                    assert collector.collect_global() == oracle.collect_global()
            else:
                taken = [next(fresh) for _ in range(CREATES.get(op[0], 0))]
                _mutate((produced, reference), op, taken)
                continue
            assert ordered_fields(produced) == ordered_fields(reference)
    finally:
        heap._np = imported
    validate_store(produced)


def _next_collects(ops):
    """For each op, the raw victim index of the first ``collect`` at or
    after it (``None`` past the last one)."""
    upcoming, out = None, []
    for op in reversed(ops):
        if op[0] == "collect":
            upcoming = op[1]
        out.append(upcoming)
    return out[::-1]


@pytest.mark.parametrize("leg", LEGS, ids=lambda leg: "python" if leg is None else "numpy")
@settings(max_examples=120, deadline=None, phases=PHASES)
@given(program=programs())
def test_pumped_plans_leave_the_store_the_oracle_leaves(leg, program):
    """The oracle comparison above through the collection scheduler: it
    pumps after every mutation and once more before each
    collection, always predicting the program's next victim, so every
    collection applies a plan the pump built — some of them several
    mutations old and kept because their epochs still held."""
    geometry, ops, oids = program
    fresh = iter(oids)
    produced, reference = ObjectStore(geometry), ObjectStore(geometry)
    collector, oracle = CopyingCollector(produced), CopyingCollector(reference)
    scheduler = ParallelCollectionScheduler(produced, collector, RoundRobinSelection())
    victims = _next_collects(ops)
    target = [None]
    imported, heap._np = heap._np, leg
    peek, parallel.peek_selection = parallel.peek_selection, lambda *_: target[0]
    collections = 0

    def pump(upcoming):
        if upcoming is not None and produced.partitions:
            target[0] = upcoming % len(produced.partitions)
            scheduler.pump()

    try:
        for op, upcoming in zip(ops, victims):
            if op[0] == "collect":
                if not produced.partitions:
                    continue
                pump(upcoming)
                pid = op[1] % len(produced.partitions)
                assert scheduler.collect(pid) == oracle_collect(oracle, pid)
                collections += 1
            elif op[0] == "global":
                with per_object_compaction(reference):
                    assert collector.collect_global() == oracle.collect_global()
            else:
                taken = [next(fresh) for _ in range(CREATES.get(op[0], 0))]
                _mutate((produced, reference), op, taken)
                pump(upcoming)
                continue
            assert ordered_fields(produced) == ordered_fields(reference)
    finally:
        heap._np = imported
        parallel.peek_selection = peek
    assert scheduler.speculation_hits == collections
    validate_store(produced)


def _assert_same_plan(traced, front):
    assert traced.survivors == front.survivors
    assert traced.fill == front.fill
    assert list(map(int, traced.dense_oids)) == list(map(int, front.dense_oids))
    assert list(map(int, traced.dense_offs)) == list(map(int, front.dense_offs))
    assert traced.overflow == front.overflow
    assert len(traced.reclaimed) == len(front.reclaimed)
    assert set(traced.reclaimed) == set(front.reclaimed)


@pytest.mark.parametrize("leg", LEGS, ids=lambda leg: "python" if leg is None else "numpy")
@settings(max_examples=120, deadline=None, phases=PHASES)
@given(program=programs())
def test_traced_plan_equals_the_front_door_plan(leg, program):
    """At every collection, the plan built from the trace's unreached set
    and the placement table's sizes equals the one the front door derives
    for the same survivors from the residents: survivors, fill, offsets,
    overflow rows, and the reclaimed objects as a set (their order is the
    work set's, not the residents')."""
    geometry, ops, oids = program
    fresh = iter(oids)
    store = ObjectStore(geometry)
    collector = CopyingCollector(store)
    imported, heap._np = heap._np, leg
    try:
        for op in ops:
            if op[0] == "collect":
                if not store.partitions:
                    continue
                pid = op[1] % len(store.partitions)
                survivors, fixup_pages, plan = collector.prepare(pid)
                _assert_same_plan(plan, store.plan_compaction(pid, survivors))
                collector.apply(pid, survivors, fixup_pages, plan)
            elif op[0] == "global":
                collector.collect_global()
            else:
                taken = [next(fresh) for _ in range(CREATES.get(op[0], 0))]
                _mutate((store,), op, taken)
    finally:
        heap._np = imported
    validate_store(store)


@st.composite
def graphs(draw):
    count = draw(st.integers(min_value=0, max_value=30))
    oids = draw(
        st.lists(st.integers(-50, 200), min_size=count, max_size=count, unique=True)
    )
    # Ids inside the table three times as likely as arbitrary ones, which
    # mostly miss it.
    known = [st.sampled_from(oids)] * 3 if oids else []
    targets = st.one_of(st.none(), st.integers(-60, 210), *known)
    table = ObjectTable()
    for oid in oids:
        slots = draw(st.lists(targets, max_size=4))
        table.insert(oid, 0, 0, 8).update({f"s{i}": t for i, t in enumerate(slots)})
    # Roots: duplicates, ids outside the table and outside the domain.
    roots = draw(st.lists(st.one_of(st.integers(-60, 210), *known), max_size=12))
    within = draw(st.one_of(st.none(), st.sets(st.sampled_from(oids)) if oids else st.just(set())))
    return table, roots, within


@settings(max_examples=300, deadline=None, phases=PHASES)
@given(graph=graphs())
def test_cheney_scan_visits_in_the_queue_search_order(graph):
    table, roots, within = graph
    before = None if within is None else set(within)
    assert breadth_first_order(table, roots, within) == oracle_order(
        {obj.oid: obj for obj in table.rows()}, roots, within
    )
    # The work set is a private copy: the caller's domain is not consumed.
    assert within == before


def _two_partitions():
    store = ObjectStore(GEOMETRIES[0])
    a = store.create(size=50)
    b = store.create(size=50)
    store.declare_dead(a)
    store.declare_dead(b)
    far = store.create(size=120)  # fills a partition of its own
    return store, a, b, far


def test_unknown_survivors_are_refused_after_the_epoch_bumps_only():
    store, _a, _b, far = _two_partitions()
    before = ordered_fields(store)
    with pytest.raises(StoreError, match=rf"survivors \[{far}\] are not residents of partition 0"):
        store.compact_partition(0, [far])
    after = ordered_fields(store)
    assert after.pop("epochs") == (
        [before["epochs"][0][0] + 1, before["epochs"][0][1]],
        before["epochs"][1] + 1,
    )
    before.pop("epochs")
    assert after == before


def test_duplicate_survivors_are_refused_after_the_epoch_bumps_only():
    """A survivor listed twice would be laid out twice — a 50-byte object
    at offset 50 of a partition with fill 100, which ``validate_store``
    does not notice — so the front door refuses it like an unknown one."""
    store, a, _b, _far = _two_partitions()
    before = ordered_fields(store)
    with pytest.raises(StoreError, match=rf"survivors \[{a}\] are listed more than once"):
        store.compact_partition(0, [a, a])
    after = ordered_fields(store)
    assert after.pop("epochs") == (
        [before["epochs"][0][0] + 1, before["epochs"][0][1]],
        before["epochs"][1] + 1,
    )
    before.pop("epochs")
    assert after == before


def test_wrong_partition_reclaim_flushes_what_was_already_reclaimed():
    store, a, b, far = _two_partitions()
    plan = store.plan_compaction(0, [])
    assert plan.reclaimed == [a, b]
    plan.reclaimed.append(far)  # a corrupt plan: ``far`` lives in partition 1
    with pytest.raises(StoreError, match=f"object {far} reclaimed from wrong partition"):
        store.compact_partition(0, [], plan=plan)
    # ``far`` was put back; ``a`` and ``b`` are gone and every ledger says so.
    assert set(objects(store)) == {far}
    assert len(store.placements) == 1
    assert store.placements.part_of(far) == 1
    assert store.dead_bytes[0] == 0
    assert (store.garbage.total_generated, store.garbage.total_collected) == (100, 100)


@pytest.mark.skipif(heap._np is None, reason="numpy is not importable: one leg only")
@pytest.mark.parametrize("collection", ["serial", "parallel"])
def test_numpy_and_python_legs_are_byte_identical(monkeypatch, collection):
    """One multi-collection cell, once as imported and once with numpy
    taken away: the vectorised layout and scatter may cost less, never
    differ — down to the iteration order of every set they fill.
    ``serial`` runs the cell under the zero-lead oracle (every plan built
    inside its pause), ``parallel`` as it runs (plans built by pumps),
    which must also equal the oracle's cell."""
    trace = compile_trace(list(PresetWorkload("steady-churn", scale=0.4, seed=7).events()))

    def cell():
        sim = Simulation(
            policy=FixedRatePolicy(15.0),
            config=SimulationConfig(
                store=StoreConfig(page_size=2048, partition_pages=8, buffer_pages=8),
                preamble_collections=0,
            ),
        )
        summary = sim.run(trace).summary
        return pickle.dumps(summary), ordered_fields(sim.store), summary.collections

    run = cell if collection == "parallel" else lambda: serially(cell)
    imported = run()
    if collection == "parallel":
        assert imported == serially(cell)
    monkeypatch.setattr(heap, "_np", None)
    assert run() == imported
    assert imported[2] >= 20, "the cell must collect many times"
