"""Compiled traces must be indistinguishable from the original stream.

The contract the trace cache rests on: ``compile_trace(events)`` replayed
is event-for-event equal to ``events``, through save/load, from any
``start_index``, and a simulation driven by the compiled trace produces a
byte-identical ``SimulationSummary`` — including under fault injection
and crash-recovery resume.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.faults.injector import FaultInjector, SimulatedCrash
from repro.faults.plan import FaultPlan, FaultSpec
from repro.oo7.config import TINY
from repro.sim.simulator import Simulation, SimulationConfig
from repro.sim.spec import (
    ExperimentSpec,
    PolicySpec,
    WorkloadSpec,
    build_policy,
    build_selection,
    build_workload,
)
from repro.storage.heap import StoreConfig
from repro.storage.object_model import ObjectKind
from repro.tx.recovery import RedoLog, recover
from repro.workload.application import Oo7Application
from repro.workload.compiled import (
    TRACE_FORMAT_VERSION,
    CompiledTrace,
    CompiledTraceError,
    compile_trace,
)

# ---------------------------------------------------------------- strategies

_oids = st.integers(min_value=0, max_value=10_000)
_slots = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8
)
_kinds = st.sampled_from(list(ObjectKind))

_events = st.one_of(
    st.builds(
        CreateEvent,
        oid=_oids,
        size=st.integers(min_value=1, max_value=4096),
        kind=_kinds,
        pointers=st.lists(
            st.tuples(_slots, st.one_of(st.none(), _oids)), max_size=4
        ).map(tuple),
    ),
    st.builds(AccessEvent, oid=_oids),
    st.builds(UpdateEvent, oid=_oids),
    st.builds(
        PointerWriteEvent,
        src=_oids,
        slot=_slots,
        target=st.one_of(st.none(), _oids),
        dies=st.lists(_oids, max_size=4).map(tuple),
    ),
    st.builds(RootEvent, oid=_oids),
    st.builds(PhaseMarkerEvent, name=st.text(min_size=1, max_size=12)),
    st.builds(IdleEvent, ticks=st.integers(min_value=1, max_value=100)),
    st.builds(BeginTransactionEvent, txid=st.integers(0, 1000)),
    st.builds(CommitTransactionEvent, txid=st.integers(0, 1000)),
    st.builds(AbortTransactionEvent, txid=st.integers(0, 1000)),
)

_traces = st.lists(_events, max_size=60)


# ---------------------------------------------------------------- properties


@given(events=_traces)
@settings(max_examples=80, deadline=None)
def test_compile_replay_is_event_for_event_equal(events):
    trace = compile_trace(events)
    assert len(trace) == len(events)
    assert list(trace) == events
    # Iterating twice must not consume the trace.
    assert list(trace) == events


@given(events=_traces, data=st.data())
@settings(max_examples=60, deadline=None)
def test_replay_from_any_start_index(events, data):
    trace = compile_trace(events)
    start = data.draw(st.integers(min_value=0, max_value=len(events)))
    assert list(trace.replay(start)) == events[start:]


@given(events=_traces)
@settings(max_examples=40, deadline=None)
def test_save_load_roundtrip(events, tmp_path_factory):
    trace = compile_trace(events)
    path = tmp_path_factory.mktemp("traces") / "t.trace"
    trace.save(path)
    loaded = CompiledTrace.load(path)
    assert list(loaded) == events


# ---------------------------------------------------------------- real traces


def _oo7_spec(rate=50.0):
    return ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": rate}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=SimulationConfig(
            store=StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4),
            preamble_collections=0,
        ),
        label="compiled-test",
    )


def _simulate(spec, trace, seed=0, **sim_kwargs):
    sim = Simulation(
        policy=build_policy(spec.policy, seed),
        selection=build_selection(spec.selection, seed),
        config=sim_kwargs.pop("config", spec.sim),
        **sim_kwargs,
    )
    return sim, sim.run(trace)


def test_oo7_trace_compiles_exactly():
    spec = _oo7_spec()
    events = list(build_workload(spec.workload, 0))
    trace = compile_trace(events)
    assert list(trace) == events


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_modules=st.integers(min_value=1, max_value=2),
    connectivity=st.integers(min_value=1, max_value=4),
    delete_fraction=st.sampled_from([0.5, 1.0]),
    doc_churn_fraction=st.sampled_from([0.0, 0.5]),
)
@settings(max_examples=15, deadline=None)
def test_oo7_trace_compiles_exactly_through_both_routes(
    seed, num_modules, connectivity, delete_fraction, doc_churn_fraction
):
    """``emit_trace`` straight into the columns and ``events()`` through
    the event encoder are one generator: they agree column for column."""
    config = dataclasses.replace(
        TINY, num_modules=num_modules, num_conn_per_atomic=connectivity
    )

    def application():
        return Oo7Application(
            config,
            seed=seed,
            delete_fraction=delete_fraction,
            doc_churn_fraction=doc_churn_fraction,
        )

    events = list(application().events())
    streamed = compile_trace(events)
    direct = compile_trace(application())
    assert direct.strings == streamed.strings
    for column in CompiledTrace._COLUMNS:
        assert getattr(direct, column) == getattr(streamed, column), column
    assert list(direct) == events


def test_simulation_summary_byte_identical_from_compiled_trace(tmp_path):
    spec = _oo7_spec()
    events = list(build_workload(spec.workload, 0))
    trace = compile_trace(events)
    path = tmp_path / "oo7.trace"
    trace.save(path)
    loaded = CompiledTrace.load(path)

    _, from_events = _simulate(spec, events)
    _, from_trace = _simulate(spec, trace)
    _, from_disk = _simulate(spec, loaded)

    assert from_events.summary == from_trace.summary == from_disk.summary
    # Byte identity, not just equality: cached-result hashes must match.
    reference = pickle.dumps(from_events.summary)
    assert pickle.dumps(from_trace.summary) == reference
    assert pickle.dumps(from_disk.summary) == reference


def test_crash_resume_from_compiled_trace_matches_event_list():
    """start_index resume must work identically on a compiled trace."""
    from repro.faults.drill import state_digest

    spec = _oo7_spec(rate=30.0)
    config = dataclasses.replace(spec.sim, enable_redo_log=True)
    events = list(build_workload(spec.workload, 0))
    trace = compile_trace(events)
    plan = FaultPlan(faults=(FaultSpec(site="gc.collect", at=2),))

    def drilled(replayable):
        injector = FaultInjector(plan)
        log = RedoLog()
        sim, _ = None, None
        sim = Simulation(
            policy=build_policy(spec.policy, 0),
            selection=build_selection(spec.selection, 0),
            config=config,
            faults=injector,
            redo_log=log,
        )
        start = 0
        crashes = 0
        while True:
            try:
                sim.run(replayable, start_index=start)
                break
            except SimulatedCrash as crash:
                crashes += 1
                assert crashes < 10, "unexpectedly many crashes"
                recovered = recover(log, store_config=config.store)
                log.truncate_uncommitted()
                start = crash.resume_index
                sim = Simulation(
                    policy=build_policy(spec.policy, 0),
                    selection=build_selection(spec.selection, 0),
                    config=config,
                    faults=injector,
                    store=recovered,
                    redo_log=log,
                )
        return crashes, state_digest(sim.store), sim

    crashes_ref, digest_ref, sim_ref = drilled(events)
    crashes_cmp, digest_cmp, sim_cmp = drilled(trace)
    assert crashes_ref >= 1, "the plan must actually crash the run"
    assert crashes_cmp == crashes_ref
    assert digest_cmp == digest_ref
    summary_ref = sim_ref.sampler.summary(sim_ref.store, sim_ref.store.iostats)
    summary_cmp = sim_cmp.sampler.summary(sim_cmp.store, sim_cmp.store.iostats)
    assert pickle.dumps(summary_cmp) == pickle.dumps(summary_ref)


# ---------------------------------------------------------------- format


def test_corrupt_file_raises_compiled_trace_error(tmp_path):
    events = [CreateEvent(oid=1, size=10), AccessEvent(oid=1)]
    path = tmp_path / "x.trace"
    compile_trace(events).save(path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CompiledTraceError):
        CompiledTrace.load(path)


def test_truncated_file_raises_compiled_trace_error(tmp_path):
    events = [CreateEvent(oid=1, size=10)]
    path = tmp_path / "x.trace"
    compile_trace(events).save(path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CompiledTraceError):
        CompiledTrace.load(path)


def test_bad_magic_and_version_rejected(tmp_path):
    path = tmp_path / "x.trace"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CompiledTraceError, match="magic"):
        CompiledTrace.load(path)

    events = [AccessEvent(oid=1)]
    good = tmp_path / "y.trace"
    compile_trace(events).save(good)
    blob = bytearray(good.read_bytes())
    blob[4] = TRACE_FORMAT_VERSION + 1  # bump the little-endian u16 version
    good.write_bytes(bytes(blob))
    with pytest.raises(CompiledTraceError, match="version"):
        CompiledTrace.load(good)
