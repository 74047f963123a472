"""The column interpreters must be invisible.

``repro.sim.batch`` replays a :class:`~repro.workload.compiled.
CompiledTrace` straight from its columns — fused kernels where the run is
eligible, the guarded per-event loop otherwise — and ``Simulation.run``
compiles whatever else it is handed at the door. These tests pin the
contract: byte-identical ``SimulationSummary`` pickles and identical
committed store state versus ``tests/event_oracle.py``, the event-object
loop that reads no column — across preset, grammar and tenant-mix
workloads, from any ``start_index``, under crash/recovery drills, with a
redo log or an opportunistic policy attached — plus
what ``replay="scalar"`` means (never the fused interpreter), what the
door does with a source that fails, and that none of it reaches
result-cache fingerprints.
"""

import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import OracleEstimator
from repro.core.extensions import OpportunisticPolicy
from repro.core.fixed import FixedRatePolicy
from repro.events import (
    AbortTransactionEvent,
    AccessEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    IdleEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
    RootEvent,
    UpdateEvent,
)
from repro.faults.drill import CrashRecoveryLoop, state_digest
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.oo7.config import TINY
from repro.service.stream import grammar_stream, tenant_stream
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
from repro.storage.heap import StoreConfig, StoreError
from repro.storage.iostats import IOStats
from repro.tx.manager import TransactionError
from repro.tx.recovery import RedoLog
from repro.workload.compiled import compile_trace
from repro.workload.tenants import make_profile, tenant_mix
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

from event_oracle import replay_events, store_fields

# ---------------------------------------------------------------- helpers


def _spec(rate=50.0, **sim_overrides):
    return ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": rate}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=SimulationConfig(
            store=StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4),
            preamble_collections=0,
            **sim_overrides,
        ),
        label="batch-replay-test",
    )


def _sim(spec, *, replay="auto", seed=0, make_policy=None, **kwargs):
    return Simulation(
        policy=make_policy() if make_policy else build_policy(spec.policy, seed),
        selection=build_selection(spec.selection, seed),
        config=dataclasses.replace(spec.sim, replay=replay),
        **kwargs,
    )


def _run(spec, replayable, *, replay, seed=0, start_index=0):
    """One simulation under an explicit interpreter choice."""
    sim = _sim(spec, replay=replay, seed=seed)
    result = sim.run(replayable, start_index=start_index)
    return sim, result


def _oracle(spec, events, *, seed=0, start_index=0):
    """The same simulation driven by the event-object loop."""
    sim = _sim(spec, seed=seed)
    result = replay_events(sim, events, start_index=start_index)
    return sim, result


def _state(sim):
    """Committed state plus every store field the kernels write, and the
    sampler's phase ledger.

    The fast interpreter inlines the store's mutators, so counters, the
    per-partition trace epochs, remembered sets and buffer contents only
    match the oracle's if its kernels touch them at the same sites.
    """
    sampler = sim.sampler
    return (
        state_digest(sim.store),
        store_fields(sim.store),
        (sampler.event_index, sampler.phase, dict(sampler.phase_boundaries)),
    )


def _assert_equivalent(spec, events, *, seed=0):
    """The oracle over the event list == each column interpreter over the
    compiled trace (``auto`` is fused for these specs, ``scalar`` guarded)."""
    trace = compile_trace(events)
    sim_o, res_o = _oracle(spec, events, seed=seed)
    summary, state = pickle.dumps(res_o.summary), _state(sim_o)
    for replay in ("auto", "scalar"):
        sim_c, res_c = _run(spec, trace, replay=replay, seed=seed)
        assert pickle.dumps(res_c.summary) == summary, replay
        assert _state(sim_c) == state, replay
    return res_o


# ------------------------------------------------- workload equivalence


@pytest.mark.parametrize("rate", [30.0, 200.0])
def test_oo7_preset_equivalence(rate):
    spec = _spec(rate=rate)
    events = list(build_workload(spec.workload, 0))
    result = _assert_equivalent(spec, events)
    assert result.summary.collections > 0, "the workload must trigger GC"


def test_grammar_workload_equivalence():
    stream = grammar_stream(make_profile("oltp-churn", scale=0.2), seed=11)
    events = list(itertools.islice(stream.events_from(), 4000))
    _assert_equivalent(_spec(rate=40.0), events)


def test_tenant_mix_equivalence():
    config = tenant_mix(["oltp-churn", "read-browse"], scale=0.2)
    events = list(itertools.islice(tenant_stream(config, seed=5).events_from(), 4000))
    _assert_equivalent(_spec(rate=40.0), events)


def test_equivalence_when_the_preamble_never_ends():
    """With the cold-start preamble still open at the end of the trace the
    summary reads the all-events accumulators, not the significant ones."""
    spec = _spec(rate=200.0)
    spec = dataclasses.replace(
        spec, sim=dataclasses.replace(spec.sim, preamble_collections=10**6)
    )
    result = _assert_equivalent(spec, list(build_workload(spec.workload, 0)))
    assert result.summary.garbage_fraction_mean > 0


# ------------------------------------------------- guarded-only features


def _churn_with_idle():
    """Churn with two quiet ticks after every cycle and four after every
    fifth: under ``idle_threshold=3`` only the long pauses may collect,
    and only if activity in between resets the quiet count."""
    events = [CreateEvent(oid=1, size=50), RootEvent(oid=1)]
    for oid in range(2, 42):
        events.append(CreateEvent(oid=oid, size=600))
        events.append(PointerWriteEvent(src=1, slot="x", target=oid))
        events.append(PointerWriteEvent(src=1, slot="x", target=None, dies=(oid,)))
        events.append(IdleEvent(ticks=4 if oid % 5 == 0 else 2))
    return events


def _opportunistic(rate=12):
    return OpportunisticPolicy(
        FixedRatePolicy(rate), OracleEstimator(), idle_threshold=3, min_garbage_bytes=100
    )


def _guarded_case(case):
    """(spec, events, policy factory or None) for one guarded-only feature."""
    if case == "redo-log+wal":
        # Transaction spans with aborts, and bare mutations around them
        # that the redo log auto-commits.
        workload = TransactionalSpec(transactions=80, abort_probability=0.3)
        events = TransactionalWorkload(workload, seed=3, initial_clusters=20).events()
        return _spec(rate=25.0, enable_redo_log=True, enable_wal=True), events, None
    return _spec(), _churn_with_idle(), _opportunistic


def _log_state(sim):
    """Everything the auto-commit bracket writes outside the store."""
    wal = sim.tx.wal
    return (
        list(sim.redo_log.records),
        sim.redo_log.appended_total,
        wal.stats,
        list(wal.stats.records_by_type.items()),  # dict == ignores key order
        wal.pending_bytes,
        (sim.tx.committed, sim.tx.aborted, sim._auto_txid),
    )


@pytest.mark.parametrize("case", ["redo-log+wal", "opportunistic"])
def test_guarded_features_match_the_oracle(case):
    """Idle ticks under an opportunistic policy keep a run off the fused
    interpreter: the guarded loop against the oracle, same summary and
    state. A redo log with a WAL no longer
    does, so that case is three-way — the event oracle, ``replay="scalar"``
    (every bare mutation one ``autocommit`` call) and ``auto`` (the kernels
    write the bracket themselves), same log and WAL as well."""
    spec, events, make_policy = _guarded_case(case)
    events = list(events)
    trace = compile_trace(events)
    sim_o = _sim(spec, make_policy=make_policy)
    res_o = replay_events(sim_o, events)
    assert res_o.summary.collections > 0, "the case must trigger GC"
    fused = case == "redo-log+wal"
    for replay in ("scalar", "auto") if fused else ("auto",):
        sim_c = _sim(spec, replay=replay, make_policy=make_policy)
        assert batch._fast_eligible(sim_c) == fused
        res_c = sim_c.run(trace)
        assert pickle.dumps(res_c.summary) == pickle.dumps(res_o.summary), replay
        assert _state(sim_c) == _state(sim_o), replay
        if fused:
            assert _log_state(sim_c) == _log_state(sim_o), replay
    if fused:
        assert any(r.txid < 0 for r in sim_o.redo_log.records), "no auto-commit"
        assert any(r.txid > 0 for r in sim_o.redo_log.records), "no explicit tx"
    else:
        # One per long pause: the short ones never reach the threshold.
        assert sim_o.policy.opportunistic_collections == 8
        assert sim_c.policy.opportunistic_collections == 8


def test_a_span_handed_to_the_guarded_loop_accounts_its_closing_event():
    """``until_tx_close`` returns behind the event that closes the span —
    behind its guard points too: ``after`` runs once per event of the span,
    the closing one included, and its stop request is honoured."""
    spec, events, _ = _guarded_case("redo-log+wal")
    events = list(events)
    trace = compile_trace(events)
    cache = batch._ensure_cache(trace)
    begin = next(i for i, e in enumerate(events) if isinstance(e, BeginTransactionEvent))
    close = next(
        i for i, e in enumerate(events)
        if i > begin and isinstance(e, (CommitTransactionEvent, AbortTransactionEvent))
    )
    sim = _sim(spec)
    sim._start(0)
    ci, wi = 0, 0
    i, ci, wi = batch._replay_guarded(sim, trace, cache, 0, begin, ci, wi, None, False)
    calls = []

    def after(applied, quiescent):
        calls.append((sim._event_index, applied, quiescent))
        return False

    i, ci, wi = batch._replay_guarded(
        sim, trace, cache, i, len(events), ci, wi, None, True, None, after
    )
    assert i == close + 1
    assert [index for index, _, _ in calls] == list(range(begin, close + 1))
    assert [quiescent for _, _, quiescent in calls] == [False] * (close - begin) + [True]

    # A stop request from inside the span wins over the span's end.
    stop_at = i + 2
    i, ci, wi = batch._replay_guarded(
        sim, trace, cache, i, len(events), ci, wi, None, True, None,
        lambda applied, quiescent: sim._event_index >= stop_at,
    )
    assert i >= stop_at


# ------------------------------------------------- eligibility


def _logging_sim():
    spec, _, _ = _guarded_case("redo-log+wal")
    return _sim(spec)


def test_a_hook_on_an_instance_keeps_the_run_off_the_fused_kernels(monkeypatch):
    """The kernels inline ``Sampler.on_event``, the store's operations, the
    buffer's touch and the log appends. A spy hung on one *instance* would
    be run past in silence — over an unbounded stream, a test waiting for
    it never stops — so such a run is not eligible. A wrapper on the
    *class* (what the benchmark's probes install) measures calls and leaves
    the run where it was."""
    assert batch._fast_eligible(_logging_sim())
    targets = {
        "sampler.on_event": lambda sim: sim.sampler,
        "store.create": lambda sim: sim.store,
        "buffer.touch": lambda sim: sim.store.buffer,
        "iostats.record_write": lambda sim: sim.store.iostats,
        "wal.append": lambda sim: sim.tx.wal,
        "redo_log.append": lambda sim: sim.redo_log,
        "tx.autocommit": lambda sim: sim.tx,
    }
    for name, component in targets.items():
        sim = _logging_sim()
        owner = component(sim)
        method = name.split(".")[1]
        setattr(owner, method, getattr(owner, method))  # shadow it, unchanged
        assert not batch._fast_eligible(sim), name
        # Plain data on the instance is not a hook.
        sim = _logging_sim()
        component(sim).note_for_the_test = 1
        assert batch._fast_eligible(sim), name

    from repro.sim.metrics import Sampler

    on_event = Sampler.on_event
    monkeypatch.setattr(Sampler, "on_event", lambda *args: on_event(*args))
    assert batch._fast_eligible(_logging_sim())


def _subclass(component):
    """Give ``component`` a do-nothing subclass of its own type."""
    component.__class__ = type("Sub", (type(component),), {"__slots__": ()})


def _hook(*args, **kwargs):
    return None


_INELIGIBLE = {
    "fault injector": lambda sim: setattr(sim, "faults", FaultInjector(FaultPlan())),
    "opportunistic policy": lambda sim: setattr(sim, "policy", _opportunistic()),
    "subclassed store": lambda sim: _subclass(sim.store),
    "subclassed iostats": lambda sim: _subclass(sim.store.iostats),
    "subclassed buffer": lambda sim: _subclass(sim.store.buffer),
    "subclassed placement table": lambda sim: _subclass(sim.store.placements),
    "subclassed sampler": lambda sim: _subclass(sim.sampler),
    "subclassed transaction manager": lambda sim: _subclass(sim.tx),
    "subclassed partition": lambda sim: _subclass(sim.store.partitions[0]),
    "iostats fault hook": lambda sim: setattr(sim.store.iostats, "fault_hook", _hook),
    "transaction fault hook": lambda sim: setattr(sim.tx, "fault_hook", _hook),
    "buffer write hook": lambda sim: setattr(sim.store.buffer, "write_hook", _hook),
    "buffer on another iostats": lambda sim: setattr(sim.store.buffer, "_iostats", IOStats()),
    # Forced, so the WAL's empty-tail condition does not decide it.
    "open transaction": lambda sim: (sim.tx.begin(1), sim.tx.wal.force()),
    "subclassed redo log": lambda sim: _subclass(sim.redo_log),
    "redo log the transactions do not write": lambda sim: setattr(sim, "redo_log", RedoLog()),
}


@pytest.mark.parametrize("reason", _INELIGIBLE)
def test_each_reason_keeps_the_run_off_the_fused_kernels(reason):
    """One eligible run, one departure from the stock components; instance
    hooks and the WAL's conditions have tests of their own."""
    sim = _logging_sim()
    sim.store.create(size=64)  # a partition to subclass
    assert batch._fast_eligible(sim)
    _INELIGIBLE[reason](sim)
    assert not batch._fast_eligible(sim)


def test_what_the_wal_must_look_like_for_a_singleton_to_cost_a_constant():
    """An empty tail and a page larger than any singleton; a WAL without a
    redo log never acts outside explicit transactions and is no obstacle."""
    sim = _logging_sim()
    sim.tx.wal.append("begin")  # a bracket that died in its operation
    assert not batch._fast_eligible(sim)
    spec, _, _ = _guarded_case("redo-log+wal")
    small = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, wal_page_size=80))
    assert not batch._fast_eligible(_sim(small))
    roomy = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, wal_page_size=81))
    assert batch._fast_eligible(_sim(roomy))
    no_redo = dataclasses.replace(
        small, sim=dataclasses.replace(small.sim, enable_redo_log=False)
    )
    assert batch._fast_eligible(_sim(no_redo))


# ------------------------------------------------- error parity under logging


@st.composite
def _program_with_one_bad_event(draw):
    """A short valid program — creates with initial pointers, overwrites
    with deaths, updates, roots, reads — cut at any index by one event the
    store must refuse."""
    events = [CreateEvent(oid=1, size=64), RootEvent(oid=1)]
    live = [1]
    slots = {}
    next_oid = 2
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        step = draw(st.sampled_from(["create", "link", "cut", "update", "access", "root"]))
        target = draw(st.sampled_from(live))
        if step == "create":
            pointers = draw(
                st.sampled_from([(), (("a", target),), (("a", None), ("b", target))])
            )
            size = draw(st.sampled_from([40, 300, 900]))
            events.append(CreateEvent(oid=next_oid, size=size, pointers=pointers))
            live.append(next_oid)
            next_oid += 1
        elif step == "link":
            slot = f"s{draw(st.integers(min_value=0, max_value=3))}"
            events.append(PointerWriteEvent(src=1, slot=slot, target=target))
            slots[slot] = target
        elif step == "cut" and slots:
            slot = draw(st.sampled_from(sorted(slots)))
            gone = slots.pop(slot)
            # Declared deaths: one real, one repeated, one unknown oid.
            events.append(
                PointerWriteEvent(src=1, slot=slot, target=None, dies=(gone, gone, 999))
            )
        elif step == "update":
            events.append(UpdateEvent(oid=target))
        elif step == "root":
            events.append(RootEvent(oid=target))
        else:
            events.append(AccessEvent(oid=target))
    known = draw(st.sampled_from(live))
    bad = draw(
        st.sampled_from(
            [
                CreateEvent(oid=known, size=50),
                CreateEvent(oid=next_oid, size=0),
                CreateEvent(oid=next_oid, size=-3),
                CreateEvent(oid=next_oid, size=70, pointers=(("a", known), ("b", 777))),
                PointerWriteEvent(src=777, slot="x", target=None),
                PointerWriteEvent(src=known, slot="x", target=777, dies=(known,)),
                AccessEvent(oid=777),
                UpdateEvent(oid=777),
                RootEvent(oid=777),
            ]
        )
    )
    at = draw(st.integers(min_value=0, max_value=len(events)))
    return events[:at] + [bad] + events[at:]


@given(events=_program_with_one_bad_event())
@settings(max_examples=150, deadline=None)
def test_a_refused_event_under_redo_and_wal_fails_alike_on_both_interpreters(events):
    """With a redo log and a WAL on, the fused kernels and the guarded
    loop's ``autocommit`` raise the same exception — type and message; an
    unknown write source is the transaction manager's error, not the
    store's — and leave the same store, log and WAL behind: the failed
    singleton's ``begin`` is logged and never forced, its txid is spent."""
    spec = _spec(rate=6.0, enable_redo_log=True, enable_wal=True)
    trace = compile_trace(events)
    outcomes = []
    for replay in ("auto", "scalar"):
        sim = _sim(spec, replay=replay)
        assert batch._fast_eligible(sim)
        with pytest.raises((StoreError, TransactionError, ValueError)) as caught:
            sim.run(trace)
        outcomes.append(
            (
                type(caught.value),
                str(caught.value),
                _state(sim),
                _log_state(sim),
                (sim._event_index, sim._event_applied),
            )
        )
    assert outcomes[0] == outcomes[1]


# ------------------------------------------------- start_index / resume


def _self_contained_events():
    """A trace whose tail is valid from many start offsets.

    Creates form one long run, so a ``start_index`` inside it lands in
    the middle of a batch; the pointer/access tail references only the
    last-created oids.
    """
    events = [CreateEvent(oid=i, size=120) for i in range(1, 11)]
    events.append(PointerWriteEvent(src=8, slot="x", target=9))
    events.extend(AccessEvent(oid=8) for _ in range(6))
    events.append(UpdateEvent(oid=9))
    return events


@given(start=st.integers(min_value=0, max_value=18))
@settings(max_examples=30, deadline=None)
def test_start_index_lands_mid_batch(start):
    """Resume from any offset — including inside an opcode run — matches.

    Both column interpreters must agree with the oracle on the outcome
    (summary and state on success, error type and message on failure) for
    every start offset.
    """
    spec = _spec(rate=500.0)
    events = _self_contained_events()
    trace = compile_trace(events)

    def outcome(run):
        try:
            sim, res = run()
        except StoreError as err:
            return ("error", type(err).__name__, str(err))
        return ("ok", pickle.dumps(res.summary), _state(sim))

    expected = outcome(lambda: _oracle(spec, events, start_index=start))
    for replay in ("auto", "scalar"):
        assert expected == outcome(
            lambda: _run(spec, trace, replay=replay, start_index=start)
        )


def _drilled(spec, plan, run, make_policy=None):
    """Crash, recover from the redo log, resume at ``resume_index`` — until
    ``run(sim, start_index)`` completes. Returns where each crash stopped
    and resumed, and everything the drill leaves behind."""
    loop = CrashRecoveryLoop(plan, store_config=spec.sim.store, max_crashes=10)

    def segment(start, store):
        sim = _sim(
            spec,
            make_policy=make_policy,
            faults=loop.injector,
            store=store,
            redo_log=loop.log,
        )
        run(sim, start)
        return sim

    current = loop.run(segment)
    crashes = [(r.event_index, r.resume_index) for r in loop.recoveries]
    summary = current.sampler.summary(current.store, current.store.iostats)
    return crashes, state_digest(current.store), pickle.dumps(summary), loop.log.records


def _assert_drills_agree(spec, events, plan, make_policy=None):
    """The oracle's drill == the production drill over the compiled trace;
    returns the trace and the ``(event_index, resume_index)`` pairs."""
    trace = compile_trace(events)
    oracle = _drilled(
        spec,
        plan,
        lambda sim, start: replay_events(sim, events, start_index=start),
        make_policy,
    )
    columns = _drilled(
        spec, plan, lambda sim, start: sim.run(trace, start_index=start), make_policy
    )
    assert oracle[0], "the plan must actually crash the run"
    assert columns == oracle
    return trace, columns[0]


def test_crash_drill_resume_matches_scalar():
    """A crash drill resumed mid-trace is identical to the scalar oracle's.

    With faults and a redo log attached the run takes the guarded
    interpreter; the resume index must land strictly inside an opcode run
    so the drill exercises a mid-batch restart.
    """
    spec = _spec(rate=30.0, enable_redo_log=True)
    events = list(build_workload(spec.workload, 0))
    plan = FaultPlan(faults=(FaultSpec(site="gc.collect", at=2),))
    trace, crashes = _assert_drills_agree(spec, events, plan)
    # The drill is only a mid-batch test if some resume index lands
    # strictly inside a run of same-opcode events.
    ops = trace.ops
    assert any(
        0 < i < len(ops) and ops[i] == ops[i - 1] for _index, i in crashes
    ), "no resume index landed inside an opcode run"


def test_crash_inside_a_transaction_resumes_at_its_begin():
    """A crash at an explicit transaction's commit re-executes the whole
    block: ``resume_index`` is the block's begin, not the failed event."""
    spec = _spec(rate=25.0, enable_redo_log=True)
    workload = TransactionalSpec(transactions=40, abort_probability=0.0)
    events = list(TransactionalWorkload(workload, seed=3, initial_clusters=20).events())
    # The workload's bare mutations all precede its first transaction, and
    # with a redo log each of them auto-commits — firing tx.commit too.
    first_begin = next(
        i for i, e in enumerate(events) if isinstance(e, BeginTransactionEvent)
    )
    bare = sum(not isinstance(e, PhaseMarkerEvent) for e in events[:first_begin])
    explicit_commits = [
        i for i, e in enumerate(events) if isinstance(e, CommitTransactionEvent)
    ]
    plan = FaultPlan(faults=(FaultSpec(site="tx.commit", at=bare + 3),))
    _trace, crashes = _assert_drills_agree(spec, events, plan)
    (event_index, resume_index), = crashes
    assert event_index == explicit_commits[2]
    assert isinstance(events[resume_index], BeginTransactionEvent)
    assert resume_index < event_index


def test_crash_in_an_idle_collection_resumes_after_the_idle_event():
    """An opportunistic collection runs *after* its idle event applied, so
    a crash inside it resumes at the next event."""
    spec = _spec(enable_redo_log=True)
    events = _churn_with_idle()
    plan = FaultPlan(faults=(FaultSpec(site="gc.collect", at=1),))
    # A fixed rate that never fires: every collection is opportunistic.
    _trace, crashes = _assert_drills_agree(
        spec, events, plan, make_policy=lambda: _opportunistic(rate=1_000_000)
    )
    (event_index, resume_index), = crashes
    assert isinstance(events[event_index], IdleEvent)
    assert resume_index == event_index + 1


# ------------------------------------------------- long read runs


def test_long_read_run_under_saga_matches_scalar():
    """A long homogeneous ACCESS run under an overwrite-clock policy.

    The trigger clock is frozen across the run and the sampler folds the
    same garbage fraction once per event; the fused kernel must reproduce
    that fold bit for bit, before and after the preamble ends mid-trace.
    """
    events = [CreateEvent(oid=i, size=200) for i in range(1, 41)]
    events.extend(RootEvent(oid=i) for i in (1, 2))
    events.append(PointerWriteEvent(src=1, slot="a", target=3))
    for round_ in range(12):
        victim = 3 + round_
        events.append(PointerWriteEvent(src=1, slot="a", target=victim + 1,
                                        dies=(victim,)))
        events.extend(AccessEvent(oid=1 + (k % 2)) for k in range(300))
        events.extend(UpdateEvent(oid=2) for _ in range(50))
    spec = _spec()
    spec = dataclasses.replace(
        spec,
        policy=PolicySpec("saga", {"garbage_fraction": 0.05, "initial_interval": 2}),
        sim=dataclasses.replace(spec.sim, preamble_collections=2),
    )
    result = _assert_equivalent(spec, events)
    assert result.summary.collections > 2, "the run must pass its preamble"


# ------------------------------------------------- ROOT takes a guarded step


def _root_cases():
    """Where the handoff of a ROOT can land: first event of a fused range
    (the overwrite before it fired a collection at rate 2), last event of
    the trace, several back to back, and an oid the store refuses."""
    head = [
        CreateEvent(oid=1, size=64),
        RootEvent(oid=1),
        CreateEvent(oid=2, size=600),
        CreateEvent(oid=3, size=600, pointers=(("a", 2),)),
        PointerWriteEvent(src=1, slot="z", target=3),
    ]
    fire = [PointerWriteEvent(src=1, slot="x", target=2)] * 3
    tail = [AccessEvent(oid=2), UpdateEvent(oid=3), PointerWriteEvent(src=1, slot="y", target=3)]
    again = [RootEvent(oid=3), RootEvent(oid=3), RootEvent(oid=1)]
    return {
        "first-of-range": head + fire + [RootEvent(oid=3)] + tail,
        "last": head + fire + tail + [RootEvent(oid=2)],
        "back-to-back": head + again + fire + tail,
        "unknown-oid": head + fire + [RootEvent(oid=777)] + tail,
        "unknown-oid-first": [RootEvent(oid=777)] + head,
    }


@pytest.mark.parametrize("logged", [False, True], ids=["plain", "redo-log+wal"])
@pytest.mark.parametrize("case", sorted(_root_cases()))
def test_root_is_handed_to_the_guarded_step(monkeypatch, case, logged):
    """The fused interpreter stops in front of every ROOT (``_SPAN``) and
    the guarded loop registers it — through ``autocommit`` under a redo
    log. The run equals ``replay="scalar"`` in summary or exception (type
    and message), store, log, WAL tail and position, and the oracle in
    summary and state where the trace is valid."""
    events = _root_cases()[case]
    spec = _spec(rate=2.0, enable_redo_log=logged, enable_wal=logged)
    trace = compile_trace(events)
    stops = []
    run_fused = batch._run_fused

    def spy(*args):
        out = run_fused(*args)
        stops.append((out[0], out[3]))
        return out

    monkeypatch.setattr(batch, "_run_fused", spy)

    def outcome(replay):
        sim = _sim(spec, replay=replay)
        try:
            result = pickle.dumps(sim.run(trace).summary)
        except StoreError as err:
            result = (type(err), str(err))
        log = _log_state(sim) if logged else None
        return result, _state(sim), log, (sim._event_index, sim._event_applied)

    fused = outcome("auto")
    handed = [i for i, stop in stops if stop == batch._SPAN]
    assert fused == outcome("scalar")
    roots = [i for i, e in enumerate(events) if isinstance(e, RootEvent)]
    if RootEvent(oid=777) in events:
        assert fused[0] == (StoreError, "unknown object 777")
        assert handed == [i for i in roots if i <= events.index(RootEvent(oid=777))]
    else:
        assert handed == roots
        sim_o, res_o = _oracle(spec, events)
        assert res_o.summary.collections > 0
        assert (pickle.dumps(res_o.summary), _state(sim_o)) == fused[:2]
        assert not logged or _log_state(sim_o) == fused[2]


# ------------------------------------------------- what "scalar" means


def test_plain_event_list_under_auto_reaches_the_fused_interpreter(monkeypatch):
    """Events are an input format: a list is compiled at the door and
    takes the same interpreter an already-compiled trace would."""
    spec = _spec()
    events = list(build_workload(spec.workload, 0))
    fused = []
    replay_fast = batch._replay_fast

    def spy(sim, *args):
        fused.append(sim)
        return replay_fast(sim, *args)

    monkeypatch.setattr(batch, "_replay_fast", spy)
    sim_l, res_l = _run(spec, events, replay="auto")
    sim_t, res_t = _run(spec, compile_trace(events), replay="auto")
    assert fused == [sim_l, sim_t]
    assert pickle.dumps(res_l.summary) == pickle.dumps(res_t.summary)
    assert _state(sim_l) == _state(sim_t)


def _generate(events):
    yield from events


@pytest.mark.parametrize(
    "form", [compile_trace, list, _generate], ids=["compiled", "list", "generator"]
)
def test_scalar_never_enters_the_fused_interpreter(monkeypatch, form):
    """``replay="scalar"`` is the guarded loop, whatever the input's type —
    and it computes what ``auto`` computes."""
    spec = _spec()
    events = list(build_workload(spec.workload, 0))
    sim_a, res_a = _run(spec, compile_trace(events), replay="auto")

    def forbidden(*args):
        raise AssertionError("replay='scalar' entered _replay_fast")

    monkeypatch.setattr(batch, "_replay_fast", forbidden)
    sim_s, res_s = _run(spec, form(events), replay="scalar")
    assert res_s.summary.collections > 0
    assert pickle.dumps(res_s.summary) == pickle.dumps(res_a.summary)
    assert _state(sim_s) == _state(sim_a)


# ------------------------------------------------- the door


class _MintedAccess(AccessEvent):
    """Events are a closed set; a subclass is not one of them."""


def _raises_after(events, k):
    yield from events[:k]
    raise OSError("the source went away")


@pytest.mark.parametrize(
    "source, error",
    [
        ("subclass", TypeError),
        ("generator", OSError),
    ],
)
@pytest.mark.parametrize("replay", ["auto", "scalar"])
def test_a_failing_source_leaves_the_simulation_untouched(source, error, replay):
    """The trace is compiled whole before the run starts, so a source that
    fails part-way raises its own error with the policy un-armed, the
    store empty and the event index where it was."""
    events = _self_contained_events()
    if source == "subclass":
        trace = events + [_MintedAccess(oid=8)]
    else:
        trace = _raises_after(events, 12)
    sim = _sim(_spec(), replay=replay)
    armed = []
    first_trigger = sim.policy.first_trigger

    def recording_first_trigger(*args):
        armed.append(args)
        return first_trigger(*args)

    sim.policy.first_trigger = recording_first_trigger
    with pytest.raises(error):
        sim.run(trace)
    assert not armed, "the policy's first trigger was armed"
    assert not sim.store.objects
    assert sim._event_index == -1
    assert sim.sampler.event_index == 0
    # The same simulation still runs a good trace from scratch.
    result = sim.run(events)
    assert len(armed) == 1 and result.summary.events == len(events)


# ------------------------------------------------- fingerprints / config


def test_replay_choice_does_not_change_fingerprint():
    """The interpreter is an execution detail, not an experiment input."""
    spec = _spec()
    prints = {
        spec_fingerprint(
            dataclasses.replace(
                spec, sim=dataclasses.replace(spec.sim, replay=replay)
            ),
            seed=0,
        )
        for replay in ("auto", "scalar")
    }
    assert len(prints) == 1


def test_invalid_replay_value_rejected():
    spec = _spec()
    for replay in ("vectorised", "batched"):
        with pytest.raises(ValueError, match="replay"):
            Simulation(
                policy=build_policy(spec.policy, 0),
                config=dataclasses.replace(spec.sim, replay=replay),
            )


def _max_create_oid_loop(ops, arg0):
    """The per-event loop ``batch._max_create_oid`` replaced."""
    best = 0
    for i, op in enumerate(ops):
        if op == 0 and arg0[i] > best:
            best = arg0[i]
    return best


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.integers(-50, 10**9)),
        max_size=300,
    )
)
@settings(max_examples=200, deadline=None)
def test_max_create_oid_equals_the_loop(rows):
    ops = [op for op, _ in rows]
    arg0 = [a for _, a in rows]
    assert batch._max_create_oid(ops, arg0) == _max_create_oid_loop(ops, arg0)


def test_max_create_oid_of_a_real_trace():
    trace = compile_trace(list(build_workload(_spec().workload, 0)))
    cache = batch._ensure_cache(trace)
    assert cache.max_oid == _max_create_oid_loop(cache.ops, cache.arg0) > 0
