"""Property-based tests: the derived frontier vs from-scratch scans.

The contract of the remembered set (``tests/frontier_oracle.py``): after
*any* sequence of store mutations, the frontier the store derives from ``Partition.incoming`` and
its own root and pin sets (roots, allocation pins, boundary sources) equals
what a full heap scan recomputes from scratch — and therefore both
derivations trace the identical survivor set. :func:`full_scan_frontier`
is the oracle: every check here compares the collector's frontier against
it. Plus the documented conservatism caveat:
a cross-partition garbage cycle is retained by partition collection (the
oracle agrees it must be) and reclaimed only by ``collect_global``.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from stored import objects

from repro.gc.collector import CopyingCollector
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.validation import validate_store

from frontier_oracle import full_scan_frontier

CFG = StoreConfig(page_size=128, partition_pages=4, buffer_pages=3)


def _check_frontier_at_collections(store, collector):
    """Wrap ``collector.prepare`` so every collection first asserts that
    the full-scan oracle derives the frontier production is about to use.
    Returns the list of partitions checked."""
    prepare = collector.prepare
    checked = []

    def checking_prepare(pid):
        scan_roots, scan_pages = full_scan_frontier(store, pid)
        assert store.partition_roots(pid) == scan_roots
        assert store.external_source_pages(pid) == scan_pages
        checked.append(pid)
        return prepare(pid)

    collector.prepare = checking_prepare
    return checked


# ---------------------------------------------------------------------------
# Random mutation sequences
#
# Ops are drawn as abstract (kind, raw indices) tuples and resolved against
# the live object population at application time (modular indexing), so a
# drawn sequence is always applicable regardless of what earlier ops
# created, reclaimed or expunged.
# ---------------------------------------------------------------------------

_IDX = st.integers(min_value=0, max_value=10**6)


@st.composite
def op_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n):
        kind = draw(
            st.sampled_from(
                ("create", "create", "write", "write", "write",
                 "root", "collect", "expunge")
            )
        )
        if kind == "create":
            size = draw(st.integers(min_value=10, max_value=300))
            ops.append(("create", size, draw(_IDX)))
        elif kind == "write":
            target = draw(st.one_of(st.none(), _IDX))
            ops.append(("write", draw(_IDX), draw(st.integers(0, 3)), target))
        else:
            ops.append((kind, draw(_IDX)))
    return ops


def _apply_ops(store, collector, ops):
    """Interpret one abstract op sequence; yields after every applied op."""
    for op in ops:
        kind = op[0]
        live = sorted(objects(store))
        if kind == "create":
            _, size, raw = op
            pointers = None
            if live and raw % 3 == 0:  # sometimes link at birth
                pointers = {"slot0": live[raw % len(live)]}
            store.create(size=size, pointers=pointers)
        elif kind == "write":
            _, raw_src, slot, raw_target = op
            if not live:
                continue
            src = live[raw_src % len(live)]
            target = None if raw_target is None else live[raw_target % len(live)]
            store.write_pointer(src, f"slot{slot}", target)
        elif kind == "root":
            if not live:
                continue
            store.register_root(live[op[1] % len(live)])
        elif kind == "collect":
            if not store.partitions:
                continue
            collector.collect(op[1] % len(store.partitions))
        else:  # expunge: only creation rollbacks, i.e. still-unlinked objects
            pinned = sorted(store.unlinked)
            if not pinned:
                continue
            store.expunge(pinned[op[1] % len(pinned)])
        yield


def _partition_survivor_oracle(store, pid, roots):
    """Independent within-partition reachability (plain DFS, no shared code)."""
    residents = store.partitions[pid].residents
    seen = set()
    stack = [oid for oid in roots if oid in residents]
    while stack:
        oid = stack.pop()
        if oid in seen:
            continue
        seen.add(oid)
        for target in store.placements.row(oid).pointers.values():
            if target in residents and target not in seen:
                stack.append(target)
    return seen


@settings(max_examples=40, deadline=None)
@given(op_sequences())
def test_incremental_frontier_matches_full_scan_after_every_op(ops):
    """After *every* mutation, the remembered-set frontier (roots and fix-up
    pages) of every partition equals the O(heap) from-scratch recomputation,
    and both frontiers trace the same survivor set."""
    store = ObjectStore(CFG)
    collector = CopyingCollector(store)
    for _ in _apply_ops(store, collector, ops):
        for pid in range(len(store.partitions)):
            scan_roots, scan_pages = full_scan_frontier(store, pid)
            incr_roots = store.partition_roots(pid)
            assert incr_roots == scan_roots
            assert store.external_source_pages(pid) == scan_pages
            assert _partition_survivor_oracle(
                store, pid, incr_roots
            ) == _partition_survivor_oracle(store, pid, scan_roots)


@settings(max_examples=40, deadline=None)
@given(op_sequences())
def test_remembered_set_equals_brute_force_boundary(ops):
    """``Partition.incoming`` holds exactly the live boundary edges: per
    target resident, each external source with its precise count of
    pointer slots — no stale entries, no missed edges — and the store's
    churn counters differ by the live edge count."""
    store = ObjectStore(CFG)
    collector = CopyingCollector(store)
    for _ in _apply_ops(store, collector, ops):
        pass

    expected: dict[int, dict[int, dict[int, int]]] = {}
    for src, obj in objects(store).items():
        src_pid = store.partition_of(src)
        for target in obj.pointers.values():
            tgt_pid = -1 if target is None else store.placements.part_of(target)
            if tgt_pid < 0 or tgt_pid == src_pid:
                continue
            per = expected.setdefault(tgt_pid, {}).setdefault(target, {})
            per[src] = per.get(src, 0) + 1

    for partition in store.partitions:
        assert partition.incoming == expected.get(partition.pid, {})
    edges = sum(
        count
        for per_target in expected.values()
        for sources in per_target.values()
        for count in sources.values()
    )
    assert store.remembers_total - store.forgets_total == edges
    assert store.remembered_stats()["edges"] == edges
    # The validator's remembered-set invariant agrees.
    assert validate_store(store).ok


@settings(max_examples=25, deadline=None)
@given(op_sequences())
def test_both_reachability_modes_reclaim_identically(ops):
    """At every collection point of a mutation sequence, the full-scan
    oracle and the store's derivation hand the collector the same frontier
    — so a collector built on either would reclaim identically."""
    store = ObjectStore(CFG)
    collector = CopyingCollector(store)
    checked = _check_frontier_at_collections(store, collector)
    for _ in _apply_ops(store, collector, ops):
        pass
    assert len(checked) == collector.collections_performed
    assert validate_store(store).ok


def test_frontier_with_root_and_pin_sets_larger_than_the_partition():
    """``partition_roots`` intersects the store's root and pin sets with the
    residents, iterating whichever side is smaller. The generated sequences
    keep both sets small; here they dwarf most partitions — one 300-byte
    resident each — and the frontier still equals the full scan."""
    store = ObjectStore(CFG)
    roots = [store.create(size=10) for _ in range(120)]
    for oid in roots:
        store.register_root(oid)
    for _ in range(120):  # allocation pins
        store.create(size=10)
    loners = [store.create(size=300) for _ in range(6)]
    store.write_pointer(roots[0], "a", loners[0])  # remembered-in
    store.write_pointer(loners[1], "b", loners[2])  # loners[1] stays pinned
    store.register_root(loners[3])
    assert min(len(store.roots), len(store.unlinked)) > 100
    for oid in loners:
        assert store.partitions[store.partition_of(oid)].residents == {oid}
    for pid in range(len(store.partitions)):
        scan_roots, scan_pages = full_scan_frontier(store, pid)
        assert store.partition_roots(pid) == scan_roots
        assert store.external_source_pages(pid) == scan_pages
    assert store.partition_roots(store.partition_of(loners[0])) == {loners[0]}
    assert store.partition_roots(store.partition_of(loners[3])) == {loners[3]}
    assert store.partition_roots(store.partition_of(loners[4])) == {loners[4]}
    assert validate_store(store).ok


# ---------------------------------------------------------------------------
# The conservatism caveat, pinned down exactly
# ---------------------------------------------------------------------------


def _cyclic_cross_partition_store():
    """Root → A (partition 0) ⇄ B (partition 1), then unlink the cycle.

    300-byte objects in 512-byte partitions force A and B apart; after the
    disconnecting write, A⇄B is a garbage cycle spanning the boundary.
    """
    store = ObjectStore(CFG)
    root = store.create(size=20)
    store.register_root(root)
    a = store.create(size=300)
    b = store.create(size=300)
    assert store.partition_of(a) != store.partition_of(b)
    store.write_pointer(root, "ref", a)
    store.write_pointer(a, "peer", b)
    store.write_pointer(b, "peer", a)
    store.write_pointer(root, "ref", None, dies=(a, b))
    return store, root, a, b


def test_cross_partition_cycle_is_retained_by_both_modes():
    """Partition collection never reclaims a cross-partition garbage cycle:
    each member is remembered-in from the other partition, so it is a
    conservative root there — by the store's derivation and by the
    full-scan oracle alike. This is the documented cost of O(partition)
    collection, not a remembered-set defect."""
    store, root, a, b = _cyclic_cross_partition_store()
    collector = CopyingCollector(store)
    checked = _check_frontier_at_collections(store, collector)
    for _round in range(3):
        for pid in range(len(store.partitions)):
            collector.collect(pid)
    assert len(checked) == 3 * len(store.partitions)
    assert set(objects(store)) == {root, a, b}
    # The garbage accounting agrees the cycle is garbage — it is
    # *uncollected*, not live: it stays on the books until a global pass.
    assert store.actual_garbage_bytes == 600
    assert validate_store(store).ok


def test_collect_global_reclaims_the_cycle():
    """The whole-database marking pass is the escape hatch: it sees the
    cycle is unreachable from the true root set and reclaims it."""
    store, root, a, b = _cyclic_cross_partition_store()
    CopyingCollector(store).collect_global()
    assert set(objects(store)) == {root}
    assert store.actual_garbage_bytes == 0
    assert validate_store(store).ok


# ---------------------------------------------------------------------------
# Oracle check on a real experiment cell
# ---------------------------------------------------------------------------


def _run_cell(check_frontier: bool) -> bytes:
    from repro.experiments.common import oo7_spec
    from repro.oo7.config import TINY
    from repro.sim.spec import PolicySpec, build_policy, build_selection, build_workload
    from repro.sim.simulator import Simulation

    spec = oo7_spec(PolicySpec("fixed", {"overwrites_per_collection": 40.0}), TINY, 2)
    sim = Simulation(
        policy=build_policy(spec.policy, 0),
        selection=build_selection(spec.selection, 0),
        config=spec.sim,
    )
    if check_frontier:
        checked = _check_frontier_at_collections(sim.store, sim.collector)
    summary = sim.run(build_workload(spec.workload, 0)).summary
    if check_frontier:
        assert len(checked) == summary.collections > 0, "the cell must collect"
    return pickle.dumps(summary)


def test_modes_produce_pickle_identical_summaries():
    """On a real OO7 cell the oracle agrees with the store's frontier at
    every collection, and attaching the check changes nothing."""
    assert _run_cell(check_frontier=True) == _run_cell(check_frontier=False)


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


REMEMBERED_GAUGES = {
    "gc.remembered.edges",
    "gc.remembered.sources",
    "gc.remembered.roots",
    "gc.remembered.pins",
    "gc.remembered.remembers_total",
    "gc.remembered.forgets_total",
    "gc.remembered.traced_objects_total",
    "gc.remembered.heap_objects_total",
    "gc.remembered.traced_vs_heap",
}


def _remembered_gauges(path):
    from repro.obs.telemetry import load_telemetry

    records = load_telemetry(path)
    gauges = next(r for r in records if r["type"] == "metrics")["gauges"]
    return {key: value for key, value in gauges.items() if key in REMEMBERED_GAUGES}


def test_run_telemetry_carries_remembered_gauges(tmp_path):
    """Every ``gc.remembered.*`` gauge is set once, as of the end of the
    run — by a simulation's run end and by the service's stop — and the
    fused kernels and the guarded loop leave equal values behind."""
    import dataclasses

    from repro.experiments.common import oo7_spec
    from repro.obs.telemetry import RunTelemetry
    from repro.oo7.config import TINY
    from repro.service.config import ServiceConfig
    from repro.service.server import GcService
    from repro.service.stream import grammar_stream
    from repro.sim.engine import run_experiment
    from repro.sim.simulator import SimulationConfig
    from repro.sim.spec import PolicySpec, build_policy
    from repro.workload.tenants import make_profile

    spec = oo7_spec(PolicySpec("fixed", {"overwrites_per_collection": 40.0}), TINY, 2)
    runs = {}
    for replay in ("auto", "scalar"):
        sim = dataclasses.replace(spec.sim, replay=replay)
        cell = dataclasses.replace(spec, sim=sim)
        agg = run_experiment(cell, seeds=[1], jobs=1, telemetry=tmp_path / replay)
        runs[replay] = _remembered_gauges(agg.telemetry_paths[0])
    gauges = runs["auto"]
    assert set(gauges) == REMEMBERED_GAUGES
    assert gauges["gc.remembered.remembers_total"] >= gauges["gc.remembered.edges"]
    assert 0.0 < gauges["gc.remembered.traced_vs_heap"] <= 1.0
    assert runs["scalar"] == gauges

    served = {}
    policy = PolicySpec("fixed", {"overwrites_per_collection": 50.0})
    for replay in ("auto", "scalar"):
        obs = RunTelemetry(tmp_path / f"serve-{replay}.jsonl", kind="service")
        service = GcService(
            policy=build_policy(policy, 7),
            stream=grammar_stream(make_profile("hot-key-skew"), seed=7),
            sim_config=SimulationConfig(replay=replay),
            service=ServiceConfig(max_events=6000, checkpoint_every_events=2000),
            obs=obs,
        )
        report = service.run()
        assert report.collections > 0
        assert (report.events_fused > 0) == (replay == "auto")
        served[replay] = _remembered_gauges(obs.close())
        for key, value in service.sim.store.remembered_stats().items():
            assert served[replay][f"gc.remembered.{key}"] == value
    assert set(served["auto"]) == REMEMBERED_GAUGES
    assert served["auto"]["gc.remembered.forgets_total"] > 0
    assert served["auto"]["gc.remembered.sources"] > 0
    assert served["auto"] == served["scalar"]
