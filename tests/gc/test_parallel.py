"""The pipelined collector must be invisible.

Every ``Simulation`` collects through ``repro.gc.parallel``'s scheduler,
which pre-traces the likely victim partition inside a window before the
trigger — a lead it sets itself, by feedback — and validates each
speculation against the store's trace epochs before use. These tests pin
the contract that makes that safe whatever the window is: byte-identical
``SimulationSummary`` pickles and identical committed store state versus
the zero-lead oracle of ``tests/serial_oracle.py`` (every collection traced
and planned inside its pause) — across selection policies, interpreters
(guarded and fused, and the event-object oracle of
``tests/event_oracle.py``), transactional rollback, crash/recovery drills
and service mode — with no effect on result-cache fingerprints and no
mutation of policy state by victim prediction. The window itself is
pinned by counters: one scenario per trigger time base must keep the hits
the quarter-interval window got while tracing about once per collection.
"""

import dataclasses
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixed import FixedRatePolicy
from repro.events import (
    CreateEvent,
    PointerWriteEvent,
    RootEvent,
)
from repro.faults.drill import CrashRecoveryLoop, state_digest
from repro.faults.plan import FaultPlan, FaultSpec
from repro.gc.parallel import (
    DEFAULT_GC_MARGIN,
    ParallelCollectionScheduler,
    peek_selection,
)
from repro.gc.selection import (
    PartitionSelectionPolicy,
    RandomSelection,
    RoundRobinSelection,
    make_selection_policy,
)
from repro.oo7.config import TINY
from repro.sim import batch
from repro.sim.cache import spec_fingerprint
from repro.sim.simulator import Simulation, SimulationConfig
from repro.sim.spec import (
    ExperimentSpec,
    PolicySpec,
    WorkloadSpec,
    build_policy,
    build_selection,
    build_workload,
)
from repro.storage.heap import ObjectStore, StoreConfig
from repro.workload.compiled import compile_trace
from repro.workload.synthetic import SyntheticPhase, SyntheticWorkload
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

from event_oracle import replay_events
from frontier_oracle import full_scan_frontier
from presets import PresetWorkload
from serial_oracle import serial_collections, serially

STORE = StoreConfig(page_size=2048, partition_pages=8, buffer_pages=8)

# ---------------------------------------------------------------- helpers


def _config(**overrides) -> SimulationConfig:
    # replay="scalar": the guarded per-event loop, where the scheduler's
    # spies below see every event; the fused route is asked for by name.
    defaults = dict(store=STORE, preamble_collections=0, replay="scalar")
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _sim(*, selection="updated-pointer", rate=40.0, seed=7, policy=None,
         **overrides):
    return Simulation(
        policy=policy or FixedRatePolicy(rate),
        selection=make_selection_policy(selection, seed=seed),
        config=_config(**overrides),
    )


def _run(workload_events, **kwargs):
    sim = _sim(**kwargs)
    result = sim.run(workload_events)
    return sim, result


def _preset_events(seed=7):
    return list(PresetWorkload("steady-churn", scale=0.4, seed=seed).events())


def _outcome(sim, result):
    return pickle.dumps(result.summary), state_digest(sim.store)


def _serial(workload_events, **kwargs):
    """The outcome of ``_run`` under the zero-lead oracle."""
    return serially(lambda: _outcome(*_run(workload_events, **kwargs)))


# ------------------------------------------------- serial equivalence


@pytest.mark.parametrize("selection", ["updated-pointer", "round-robin", "random"])
def test_parallel_matches_serial_across_policies(selection):
    events = _preset_events()
    serial = _serial(events, selection=selection)
    sim_p, res_p = _run(events, selection=selection)
    assert _outcome(sim_p, res_p) == serial
    assert res_p.summary.collections > 0, "the workload must trigger GC"


def test_speculation_actually_engages():
    """The equivalence tests are vacuous if every snapshot goes stale."""
    events = _preset_events()
    sim, res = _run(events)
    stats = sim._par.stats()
    assert stats["pumps"] > 0
    assert stats["speculation_hits"] > 0, stats
    assert (
        stats["speculation_hits"]
        + stats["speculation_stale"]
        + stats["speculation_misses"]
        == res.summary.collections
    )


def test_parallel_matches_serial_full_reachability(monkeypatch):
    """Every speculative snapshot's frontier equals the full-scan oracle's,
    and the run built on those snapshots matches the serial one."""
    snapshot = ParallelCollectionScheduler._snapshot
    checked = []

    def checking_snapshot(self, pid):
        spec = snapshot(self, pid)
        roots, fixup_pages = full_scan_frontier(self.store, pid)
        assert spec.roots == sorted(roots)
        assert spec.fixup_pages == fixup_pages
        checked.append(pid)
        return spec

    monkeypatch.setattr(ParallelCollectionScheduler, "_snapshot", checking_snapshot)
    events = _preset_events()
    serial = _serial(events)
    assert not checked, "the oracle must take no snapshot"
    parallel = _outcome(*_run(events))
    assert parallel == serial
    assert checked, "no snapshot was taken"


def test_parallel_matches_serial_under_batched_replay():
    """Pipelined sims take the fused interpreter; results match the
    event-object oracle over the same events under the zero-lead oracle."""
    events = _preset_events()
    trace = compile_trace(events)
    with serial_collections():
        oracle = _sim()
        serial = _outcome(oracle, replay_events(oracle, events))
    parallel = _outcome(*_run(trace, replay="auto"))
    assert parallel == serial


@pytest.mark.parametrize(
    "policy_spec",
    [
        PolicySpec("fixed", {"overwrites_per_collection": 25.0}),
        PolicySpec("saga", {"garbage_fraction": 0.10}),
        PolicySpec("saio", {"io_fraction": 0.10}),
    ],
    ids=["fixed", "saga", "saio"],
)
@pytest.mark.parametrize("transactional", [False, True], ids=["plain", "tx-spans"])
def test_fast_path_parallel_matches_serial(policy_spec, transactional):
    """Fused replay with pipelined collections, on both trigger clocks
    (overwrites for fixed/SAGA, application I/O for SAIO) and across the
    fast -> guarded -> fast handoff around every transaction span."""
    if transactional:
        spec = TransactionalSpec(transactions=400, abort_probability=0.4)
        events = TransactionalWorkload(spec, seed=3, initial_clusters=20).events()
    else:
        events = _preset_events()
    trace = compile_trace(events)
    serial = _serial(trace, policy=build_policy(policy_spec, 0), replay="auto")
    sim, res = _run(trace, policy=build_policy(policy_spec, 0), replay="auto")
    assert _outcome(sim, res) == serial
    assert res.summary.collections > 0, "the workload must trigger GC"
    assert sim._par.pumps > 0
    if not transactional:
        # (Collections deferred to a commit find the victim mutated by
        # the transaction itself; only the plain trace must hit.)
        assert sim._par.speculation_hits > 0, sim._par.stats()


# ------------------------------------------------- fast path + wake-ups


def test_stock_parallel_simulation_is_fast_eligible():
    sim = Simulation(
        policy=FixedRatePolicy(40.0),
        config=_config(replay="auto"),
    )
    assert batch._fast_eligible(sim)


def test_speculation_counters_equal_fast_and_guarded(monkeypatch):
    """The scheduler's counters are a function of the trace: the fused
    interpreter must produce the ones the per-event route does."""
    trace = compile_trace(_preset_events())
    fast_spans = []
    replay_fast = batch._replay_fast

    def spy(sim, *args):
        fast_spans.append(sim)
        return replay_fast(sim, *args)

    monkeypatch.setattr(batch, "_replay_fast", spy)
    sim_f, res_f = _run(trace, replay="auto")
    assert fast_spans == [sim_f], "the pipelined run must replay fused"

    monkeypatch.setattr(batch, "_fast_eligible", lambda sim: False)
    sim_g, res_g = _run(trace, replay="auto")
    assert fast_spans == [sim_f], "the reference run must replay guarded"

    assert sim_f._par.stats() == sim_g._par.stats()
    assert sim_f._par.speculation_hits > 0
    assert _outcome(sim_f, res_f) == _outcome(sim_g, res_g)
    assert sim_f.store.trace_epochs == sim_g.store.trace_epochs
    assert sim_f.store.compaction_epoch == sim_g.store.compaction_epoch


def _recording_sim(policy, **overrides):
    """A simulation that records ``(clock, deadline)`` at every pump and
    the deadline of every collection."""
    sim = Simulation(policy=policy, config=_config(**overrides))
    par = sim._par
    pumps, deadlines = [], []
    pump, collect = par.pump, par.collect

    def recording_pump():
        pumps.append((sim._clock(), sim._real_due_at))
        pump()

    def recording_collect(pid):
        deadlines.append(sim._real_due_at)
        return collect(pid)

    par.pump = recording_pump
    par.collect = recording_collect
    return sim, pumps, deadlines


def test_pumps_per_collection_are_logarithmic_in_the_margin():
    rate = 32.0
    sim, pumps, deadlines = _recording_sim(FixedRatePolicy(rate), replay="auto")
    res = sim.run(compile_trace(_preset_events()))
    assert res.summary.collections >= 10
    bound = math.log2(rate * DEFAULT_GC_MARGIN) + 2
    # +1: the trace may end inside a margin window that never fires.
    assert sim._par.pumps <= (res.summary.collections + 1) * bound
    assert sim._par.pumps == len(pumps)
    # The overwrite clock moves one tick at a time, so every cycle passes
    # through the tick before its deadline and must have been pumped there.
    pumped = set(pumps)
    for due in deadlines:
        assert (due - 1.0, due) in pumped


def test_last_wake_up_lands_one_tick_before_the_trigger():
    """Application-I/O clock: one event can advance it by several ticks, so
    a cycle may jump over its last tick — but whenever the clock does take
    that value, the scheduler was pumped there."""
    sim, pumps, deadlines = _recording_sim(
        build_policy(PolicySpec("saio", {"io_fraction": 0.10}), 0), replay="scalar"
    )
    # The guarded loop samples after every event and before the trigger
    # check: spy on the clock there.
    seen = set()
    sample = sim.sampler.on_event

    def spy(store, iostats):
        seen.add(sim._clock())
        sample(store, iostats)

    sim.sampler.on_event = spy
    res = sim.run(_preset_events())
    assert res.summary.collections >= 5
    pumped = set(pumps)
    passed_through = 0
    for due in deadlines:
        last_tick = float(math.ceil(due) - 1)
        if last_tick in seen:
            passed_through += 1
            assert (last_tick, due) in pumped
    assert passed_through > 0


# ------------------------------------------------- the speculation window


@pytest.fixture(scope="module")
def preset_trace():
    return compile_trace(_preset_events())


@given(
    fractions=st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(math.inf)),
        min_size=1,
        max_size=8,
    ),
    policy_spec=st.sampled_from(
        [
            PolicySpec("fixed", {"overwrites_per_collection": 40.0}),
            PolicySpec("saio", {"io_fraction": 0.10}),
            PolicySpec("allocation", {"bytes_per_collection": 6000.0}),
        ]
    ),
)
@settings(max_examples=25, deadline=None)
def test_property_no_window_can_reach_a_result(preset_trace, fractions, policy_spec):
    """Hand the scheduler an arbitrary window before every trigger it is
    armed for — one tick, the cap, ``inf``, anything between: summaries
    stay pickle-equal and the committed state digest-equal to the zero-lead
    oracle's."""
    serial = _serial(preset_trace, policy=build_policy(policy_spec, 0), replay="auto")
    sim = _sim(policy=build_policy(policy_spec, 0), replay="auto")
    par = sim._par
    lead = par.lead
    draws = itertools.cycle(fractions)
    dictated = []

    def dictated_lead(interval):
        par.window = max(1.0, next(draws) * interval * DEFAULT_GC_MARGIN)
        dictated.append(par.window)
        return lead(interval)

    par.lead = dictated_lead
    assert _outcome(sim, sim.run(preset_trace)) == serial
    assert len(dictated) > sim.collector.collections_performed > 0


@pytest.fixture(scope="module")
def churn_trace():
    """The repo benchmark's ``gc_churn`` trace (standard scale, seed 5):
    the trace the counters below were read on at the parent commit."""
    phase = SyntheticPhase(
        name="churn",
        operations=50_000,
        create_weight=1.0,
        delete_weight=1.0,
        access_weight=2.0,
        cluster_size=4,
        object_size=128,
    )
    generator = SyntheticWorkload([phase], seed=5, initial_clusters=4800)
    return compile_trace(list(generator.events()))


def _churn_sim(policy_spec):
    return Simulation(
        policy=build_policy(policy_spec, 5),
        config=SimulationConfig(
            store=StoreConfig(page_size=2048, partition_pages=64, buffer_pages=8)
        ),
    )


@pytest.mark.parametrize(
    "policy_spec, quarter_interval_hits",
    [
        # Application-I/O clock: one event moves it by several ticks.
        (PolicySpec("saio", {"io_fraction": 0.30}), 382),
        # Overwrite clock: one tick at a time.
        (PolicySpec("fixed", {"overwrites_per_collection": 100.0}), 113),
        # Byte clock: one create moves it by hundreds of ticks, so a
        # window of a tick or two is jumped together with the trigger and
        # the scheduler is never pumped at all.
        (PolicySpec("allocation", {"bytes_per_collection": 40000.0}), 199),
    ],
    ids=["saio:0.3", "fixed:100", "allocation:40000"],
)
def test_window_keeps_the_hits_at_one_trace_per_collection(
    churn_trace, policy_spec, quarter_interval_hits
):
    """The fixed quarter-interval window traced 1.8 / 2.3 / 3.1 times per
    collection here for the hits in the table; the feedback window must
    keep those hits (to within one) at no more than 1.25 traces."""
    serial = serially(_churn_sim(policy_spec).run, churn_trace)
    sim = _churn_sim(policy_spec)
    result = sim.run(churn_trace)
    assert pickle.dumps(result.summary) == pickle.dumps(serial.summary)
    stats = sim._par.stats()
    collections = result.summary.collections
    assert stats["pumps"] > 0
    assert stats["speculation_hits"] >= quarter_interval_hits - 1, stats
    assert stats["speculative_traces"] / collections <= 1.25, stats
    assert 1.0 <= stats["window"] < math.inf
    # Every trace is accounted for: used, found stale at the trigger,
    # thrown away before it, or still pending when the trace ended.
    accounted = (
        stats["speculation_hits"]
        + stats["speculation_stale"]
        + stats["wasted_traces"]
    )
    assert 0 <= stats["speculative_traces"] - accounted <= 1, stats


def test_fleet_cell_speculates_about_once_per_collection(tmp_path):
    """Count-based gate on one seeded multi-profile fleet cell, no timings:
    a handful of pumps per collection (the wake-ups are geometric), about
    one speculative trace each, and most traces still valid at the
    trigger. The cell read 3.9 pumps, 1.25 traces and 0.94 hits per
    collection over 52 collections when the gate was set."""
    from repro.fleet import main as fleet_main
    from repro.obs.report import digest_file

    code = fleet_main(
        ["--profiles", "read-browse", "hot-key-skew", "diurnal", "--scale", "2",
         "--seeds", "0", "--policies", "saio:0.1", "--no-cache", "--jobs", "1",
         "--telemetry", str(tmp_path / "telemetry"),
         "--out", str(tmp_path / "report.txt")]
    )
    assert code == 0
    (run_file,) = (tmp_path / "telemetry").glob("run_*.jsonl")
    metrics = digest_file(run_file).metrics
    gauges, collections = metrics["gauges"], metrics["counters"]["gc.collections"]
    assert collections >= 30, collections
    assert gauges["gc.parallel.pumps"] / collections <= 6, gauges
    assert gauges["gc.parallel.speculative_traces"] / collections <= 1.3, gauges
    assert gauges["gc.parallel.speculation_hits"] / collections >= 0.8, gauges


def test_rearming_an_uncollectable_trigger_leaves_the_window_alone():
    """``select`` found nothing collectable: the trigger is re-armed
    through ``_schedule`` with no collection in between, so neither
    outcome was observed and the window must not move."""

    class NothingCollectable(RoundRobinSelection):
        def select(self, store):
            return None

    events = _preset_events()
    sim = Simulation(
        policy=FixedRatePolicy(40.0),
        selection=NothingCollectable(),
        config=_config(),
    )
    par = sim._par
    par.window = 3.0
    result = sim.run(events)
    assert result.summary.collections == 0
    assert par.pumps > 0, "the trigger must have been armed and re-armed"
    assert par.window == 3.0
    assert par.stats() == {
        "pumps": par.pumps,
        "speculative_traces": 0,
        "speculation_hits": 0,
        "speculation_stale": 0,
        "speculation_misses": 0,
        "wasted_traces": 0,
        "window": 3.0,
    }


def test_parallel_matches_serial_transactional_rollback():
    """Aborted transactions undo pointer writes and expunge creations —
    both bump trace epochs, so speculation over rolled-back state must
    still validate correctly."""
    spec = TransactionalSpec(transactions=60, abort_probability=0.4)
    events = list(TransactionalWorkload(spec, seed=3, initial_clusters=20).events())
    assert _outcome(*_run(events, rate=25.0)) == _serial(events, rate=25.0)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    selection=st.sampled_from(["updated-pointer", "round-robin", "random"]),
)
@settings(max_examples=20, deadline=None)
def test_property_summaries_pickle_equal(seed, selection):
    events = list(PresetWorkload("steady-churn", scale=0.25, seed=seed).events())
    serial = _serial(events, selection=selection, seed=seed)
    parallel = _outcome(*_run(events, selection=selection, seed=seed))
    assert parallel == serial


# ------------------------------------------------- crash drills


def test_crash_drill_matches_serial():
    """Fault-injected crash–recover–continue runs must be identical:
    same resume indices, same committed state, same summary."""
    spec = ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": 30.0}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=_config(enable_redo_log=True),
        label="parallel-drill",
    )
    events = list(build_workload(spec.workload, 0))
    plan = FaultPlan(faults=(FaultSpec(site="gc.collect", at=2),))

    def drilled():
        config = spec.sim
        loop = CrashRecoveryLoop(plan, store_config=config.store, max_crashes=10)

        def segment(start, store):
            sim = Simulation(
                policy=build_policy(spec.policy, 0),
                selection=build_selection(spec.selection, 0),
                config=config,
                faults=loop.injector,
                store=store,
                redo_log=loop.log,
            )
            if store is not None:
                # A fresh scheduler: the window is back at the cap.
                assert sim._par.window == math.inf
            sim.run(events, start_index=start)
            return sim

        sim = loop.run(segment)
        resumes = [r.resume_index for r in loop.recoveries]
        summary = sim.sampler.summary(sim.store, sim.store.iostats)
        return resumes, state_digest(sim.store), pickle.dumps(summary)

    serial = serially(drilled)
    assert serial[0], "the plan must actually crash the run"
    assert drilled() == serial


# ------------------------------------------------- victim prediction


def test_peek_selection_predicts_without_consuming_rng():
    store = ObjectStore(STORE)
    root = store.create(size=64)
    store.register_root(root)
    for _ in range(40):
        store.create(size=400)
    policy = RandomSelection(seed=13)
    state_before = policy._rng.getstate()
    predicted = peek_selection(policy, store)
    assert policy._rng.getstate() == state_before
    assert policy.select(store) == predicted


def test_peek_selection_preserves_round_robin_cursor():
    store = ObjectStore(STORE)
    root = store.create(size=64)
    store.register_root(root)
    for _ in range(40):
        store.create(size=400)
    policy = RoundRobinSelection()
    predicted = peek_selection(policy, store)
    assert policy._last == -1, "peek must not advance the cursor"
    assert policy.select(store) == predicted
    # After the real draw advanced the cursor, peek tracks the next victim.
    assert peek_selection(policy, store) == policy.select(store)


def test_peek_selection_unknown_policy_declines():
    class CustomSelection(PartitionSelectionPolicy):
        def select(self, store):  # pragma: no cover - never called
            return 0

        def describe(self):
            return "custom"

    store = ObjectStore(STORE)
    assert peek_selection(CustomSelection(), store) is None


def test_unknown_policy_runs_serial_path_inline():
    """No prediction → every collection is a speculation miss, but the
    run still completes with the zero-lead oracle's results."""

    class EveryOther(PartitionSelectionPolicy):
        """Deterministic custom policy the scheduler cannot peek."""

        def __init__(self):
            self._flip = 0

        def select(self, store):
            candidates = [p.pid for p in store.partitions if p.residents]
            self._flip += 1
            return candidates[self._flip % len(candidates)]

        def describe(self):
            return "every-other"

    events = _preset_events()

    def run():
        sim = Simulation(
            policy=FixedRatePolicy(40.0),
            selection=EveryOther(),
            config=_config(),
        )
        result = sim.run(events)
        return sim, result

    serial = _outcome(*serially(run))
    sim_p, res_p = run()
    assert _outcome(sim_p, res_p) == serial
    stats = sim_p._par.stats()
    assert stats["speculation_hits"] == 0
    assert stats["speculation_misses"] == res_p.summary.collections


# ------------------------------------------------- trace epochs


def test_mutations_bump_trace_epochs():
    store = ObjectStore(STORE)
    a = store.create(size=64)
    pid = store.placements.part_of(a)
    before = store.trace_epochs[pid]
    store.register_root(a)
    assert store.trace_epochs[pid] > before

    before = store.trace_epochs[pid]
    b = store.create(size=64)
    store.write_pointer(a, "x", b)
    assert store.trace_epochs[pid] > before

    # Declaring garbage does not affect the trace (the dead flag is not
    # part of reachability), so it must not invalidate speculation.
    before = list(store.trace_epochs)
    store.write_pointer(a, "x", None, dies=[b])
    after_write = list(store.trace_epochs)
    assert after_write != before  # the overwrite itself bumps

    # The fused interpreter inlines these mutators: the same mutations as
    # one compiled trace must leave the same epochs, bump for bump.
    sim = Simulation(policy=FixedRatePolicy(1e9), config=_config(replay="auto"))
    assert batch._fast_eligible(sim)
    sim.run(
        compile_trace(
            [
                CreateEvent(oid=a, size=64),
                RootEvent(oid=a),
                CreateEvent(oid=b, size=64),
                PointerWriteEvent(src=a, slot="x", target=b),
                PointerWriteEvent(src=a, slot="x", target=None, dies=(b,)),
            ]
        )
    )
    assert sim.store.trace_epochs == after_write

    before_ep = store.compaction_epoch
    from repro.gc.collector import CopyingCollector

    CopyingCollector(store).collect(pid)
    assert store.compaction_epoch > before_ep


def test_fast_path_bumps_epochs_across_partitions():
    """Boundary edges bump the *target's* partition (remember at the
    store, forget at the overwrite — found or not), as the store does."""
    # 16 KB partitions: three 6000-byte objects land in two partitions.
    events = [
        CreateEvent(oid=1, size=6000),
        RootEvent(oid=1),
        CreateEvent(oid=2, size=6000),
        CreateEvent(oid=3, size=6000, pointers=(("back", 1),)),
        PointerWriteEvent(src=1, slot="far", target=3),
        PointerWriteEvent(src=1, slot="far", target=2),
        PointerWriteEvent(src=3, slot="back", target=None),
        RootEvent(oid=3),
    ]
    oracle = Simulation(policy=FixedRatePolicy(1e9), config=_config())
    replay_events(oracle, events)
    assert len(oracle.store.partitions) == 2
    fused = Simulation(policy=FixedRatePolicy(1e9), config=_config(replay="auto"))
    assert batch._fast_eligible(fused)
    fused.run(compile_trace(events))
    assert fused.store.trace_epochs == oracle.store.trace_epochs
    assert all(epoch > 0 for epoch in fused.store.trace_epochs)


def test_stale_speculation_is_discarded():
    """Mutating the victim between snapshot and apply forces the serial
    fallback — and the collection is still correct."""
    store = ObjectStore(STORE)
    from repro.gc.collector import CopyingCollector
    from repro.gc.selection import UpdatedPointerSelection

    root = store.create(size=50)
    store.register_root(root)
    doomed = store.create(size=200)
    store.write_pointer(root, "x", doomed)
    collector = CopyingCollector(store)
    scheduler = ParallelCollectionScheduler(
        store, collector, UpdatedPointerSelection()
    )
    scheduler.pump()
    # Invalidate: sever the pointer, making `doomed` garbage.
    store.write_pointer(root, "x", None, dies=[doomed])
    result = scheduler.collect(0)
    assert scheduler.speculation_stale == 1
    assert result.reclaimed_objects == 1
    assert doomed not in store.placements


class _CountingPtrs(list):
    """The pointer-dict column, counting every read of a row."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def _garbage_with_far_edges():
    """Partition 0 holds a root, a live object and ten garbage objects,
    each pointing into partition 1: reclaiming them forgets ten
    remembered references. Partition 0 has every pointer overwrite, so
    the updated-pointer policy picks it."""
    store = ObjectStore(STORE)
    root = store.create(size=100)
    store.register_root(root)
    keep = store.create(size=100)
    store.write_pointer(root, "keep", keep)
    doomed = [store.create(size=1618) for _ in range(10)]  # fills partition 0
    for i, oid in enumerate(doomed):
        store.write_pointer(root, f"g{i}", oid)
        far = store.create(size=500)
        assert store.partition_of(far) == 1
        store.write_pointer(oid, "far", far)
    for i, oid in enumerate(doomed):
        store.write_pointer(root, f"g{i}", None, dies=[oid])
    return store, keep


def _counted_collection(monkeypatch, store, collect):
    """Run ``collect()`` with the store's pointer-dict reads and the
    collection modules' ``set(...)`` constructions counted."""
    from repro.gc import collector as collector_module
    from repro.gc import parallel as parallel_module
    from repro.storage import heap as heap_module
    from repro.storage import traversal as traversal_module

    built = []

    def counting_set(*args):
        built.append(args)
        return set(*args)

    with monkeypatch.context() as patch:
        for module in (heap_module, traversal_module, collector_module, parallel_module):
            patch.setattr(module, "set", counting_set, raising=False)
        store.placements.ptrs = ptrs = _CountingPtrs(store.placements.ptrs)
        result = collect()
    return result, ptrs.reads, len(built)


def test_a_validated_speculation_pauses_without_reads(monkeypatch):
    """The plan a pump built holds every read the compaction needs, so a
    speculation hit's pause reads no pointer dict and builds no set; a
    stale one re-traces and re-plans inline, reading what the serial
    collector reads."""
    from repro.gc.collector import CopyingCollector
    from repro.gc.selection import UpdatedPointerSelection

    def scheduler(store):
        return ParallelCollectionScheduler(
            store, CopyingCollector(store), UpdatedPointerSelection()
        )

    serial_store, _keep = _garbage_with_far_edges()
    serial, _, _ = _counted_collection(
        monkeypatch, serial_store, lambda: CopyingCollector(serial_store).collect(0)
    )
    assert serial.reclaimed_objects == 10

    store, _keep = _garbage_with_far_edges()
    hit = scheduler(store)
    hit.pump()
    result, reads, built = _counted_collection(monkeypatch, store, lambda: hit.collect(0))
    assert hit.speculation_hits == 1
    assert (reads, built) == (0, 0)
    assert result == serial
    assert state_digest(store) == state_digest(serial_store)

    # Stale: a slot written in the victim after the pump.
    reference, keep = _garbage_with_far_edges()
    reference.write_pointer(keep, "x", None)
    expected = _counted_collection(
        monkeypatch, reference, lambda: CopyingCollector(reference).collect(0)
    )
    store, keep = _garbage_with_far_edges()
    stale = scheduler(store)
    stale.pump()
    store.write_pointer(keep, "x", None)
    counted = _counted_collection(monkeypatch, store, lambda: stale.collect(0))
    assert stale.speculation_stale == 1
    assert counted == expected
    assert counted[1] >= 12  # two survivors traced, ten reclaimed planned


# ------------------------------------------------- config plumbing


def test_invalid_collection_mode_rejected():
    with pytest.raises(ValueError, match="collection"):
        Simulation(
            policy=FixedRatePolicy(10),
            config=_config(collection="concurrent"),
        )


def test_scheduler_validates_arguments():
    with pytest.raises(ValueError, match="gc_workers"):
        Simulation(policy=FixedRatePolicy(10), config=_config(gc_workers=0))
    assert 0.0 <= DEFAULT_GC_MARGIN < 1.0


def test_collection_and_gc_workers_are_accepted_and_inert():
    """Both fields are still validated and still accepted at every value
    they ever took, but select nothing: every run pipelines, with the
    same counters, the same window and the same outcome."""
    events = _preset_events()
    runs = [
        _run(events, collection=collection, gc_workers=workers)
        for collection, workers in [("serial", 1), ("parallel", 2), ("serial", 4)]
    ]
    assert len({_outcome(sim, res) for sim, res in runs}) == 1
    stats = [sim._par.stats() for sim, _res in runs]
    assert stats[0]["speculation_hits"] > 0
    assert stats == [stats[0]] * len(stats)


def test_collection_choice_does_not_change_fingerprint():
    """Execution strategy is not an experiment input."""
    spec = ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": 50.0}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=_config(),
        label="fingerprint-invariance",
    )
    prints = {
        spec_fingerprint(
            dataclasses.replace(
                spec,
                sim=dataclasses.replace(
                    spec.sim, collection=collection, gc_workers=workers
                ),
            ),
            seed=0,
        )
        for collection, workers in [
            ("serial", 1),
            ("parallel", 1),
            ("parallel", 4),
        ]
    }
    assert len(prints) == 1
