"""The batched replay interpreter must be invisible.

``repro.sim.batch`` replays a :class:`~repro.workload.compiled.
CompiledTrace` straight from its columns with fused kernels; these tests
pin the contract that makes it safe to enable by default: byte-identical
``SimulationSummary`` pickles and identical committed store state versus
the scalar per-event loop — across preset, grammar and tenant-mix
workloads, from any ``start_index``, under crash/recovery drills, and
with no effect on result-cache fingerprints or service-mode backpressure
decisions. "Batched" below means ``replay="auto"`` over a compiled trace.
"""

import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import (
    AccessEvent,
    CreateEvent,
    PointerWriteEvent,
    RootEvent,
    UpdateEvent,
)
from repro.faults.drill import state_digest
from repro.faults.injector import FaultInjector, SimulatedCrash
from repro.faults.plan import FaultPlan, FaultSpec
from repro.oo7.config import TINY
from repro.service.server import GcService, ServiceConfig
from repro.service.stream import grammar_stream, tenant_stream
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
from repro.tx.recovery import RedoLog, recover
from repro.workload.compiled import compile_trace
from repro.workload.tenants import make_profile, tenant_mix

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


def _run(spec, replayable, *, replay, seed=0, start_index=0):
    """One simulation under an explicit interpreter choice."""
    config = dataclasses.replace(spec.sim, replay=replay)
    sim = Simulation(
        policy=build_policy(spec.policy, seed),
        selection=build_selection(spec.selection, seed),
        config=config,
    )
    result = sim.run(replayable, start_index=start_index)
    return sim, result


def _state(sim):
    """Committed state plus the speculation epochs no digest covers.

    The fast interpreter inlines the store's mutators, so the per-partition
    trace epochs and the compaction epoch only match the scalar loop's if
    its kernels bump them at the same sites.
    """
    store = sim.store
    return state_digest(store), tuple(store.trace_epochs), store.compaction_epoch


def _assert_equivalent(spec, events, *, seed=0):
    """Scalar over the event list == batched over the compiled trace."""
    trace = compile_trace(events)
    sim_s, res_s = _run(spec, events, replay="scalar", seed=seed)
    sim_b, res_b = _run(spec, trace, replay="auto", seed=seed)
    assert pickle.dumps(res_b.summary) == pickle.dumps(res_s.summary)
    assert _state(sim_b) == _state(sim_s)
    return res_s


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


def test_plain_event_list_under_auto_stays_scalar():
    """replay='auto' only engages batching for an already-compiled trace."""
    spec = _spec()
    events = list(build_workload(spec.workload, 0))
    _, res_auto = _run(spec, events, replay="auto")
    _, res_scalar = _run(spec, events, replay="scalar")
    assert pickle.dumps(res_auto.summary) == pickle.dumps(res_scalar.summary)


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

    Both interpreters must agree on the outcome (summary and state on
    success, error type and message on failure) for every start offset.
    """
    spec = _spec(rate=500.0)
    events = _self_contained_events()
    trace = compile_trace(events)

    def outcome(replayable, replay):
        try:
            sim, res = _run(spec, replayable, replay=replay, start_index=start)
        except StoreError as err:
            return ("error", type(err).__name__, str(err))
        return ("ok", pickle.dumps(res.summary), _state(sim))

    assert outcome(trace, "auto") == outcome(events, "scalar")


def test_crash_drill_resume_matches_scalar():
    """A crash drill resumed mid-trace is identical under both interpreters.

    With faults and a redo log attached the batched path takes its
    guarded per-event interpreter; the resume index must land strictly
    inside an opcode run so the drill exercises a mid-batch restart.
    """
    spec = _spec(rate=30.0)
    config = dataclasses.replace(spec.sim, enable_redo_log=True)
    events = list(build_workload(spec.workload, 0))
    trace = compile_trace(events)
    plan = FaultPlan(faults=(FaultSpec(site="gc.collect", at=2),))

    def drilled(replayable, replay):
        injector = FaultInjector(plan)
        log = RedoLog()
        drill_config = dataclasses.replace(config, replay=replay)
        sim = Simulation(
            policy=build_policy(spec.policy, 0),
            selection=build_selection(spec.selection, 0),
            config=drill_config,
            faults=injector,
            redo_log=log,
        )
        start = 0
        resumes = []
        while True:
            try:
                sim.run(replayable, start_index=start)
                break
            except SimulatedCrash as crash:
                assert len(resumes) < 10, "unexpectedly many crashes"
                recovered = recover(log, store_config=config.store)
                log.truncate_uncommitted()
                start = crash.resume_index
                resumes.append(start)
                sim = Simulation(
                    policy=build_policy(spec.policy, 0),
                    selection=build_selection(spec.selection, 0),
                    config=drill_config,
                    faults=injector,
                    store=recovered,
                    redo_log=log,
                )
        summary = sim.sampler.summary(sim.store, sim.store.iostats)
        return resumes, state_digest(sim.store), pickle.dumps(summary)

    resumes_s, digest_s, summary_s = drilled(events, "scalar")
    resumes_b, digest_b, summary_b = drilled(trace, "auto")
    assert resumes_s, "the plan must actually crash the run"
    assert resumes_b == resumes_s
    assert digest_b == digest_s
    assert summary_b == summary_s
    # The drill is only a mid-batch test if some resume index lands
    # strictly inside a run of same-opcode events.
    ops = trace.ops
    assert any(0 < i < len(ops) and ops[i] == ops[i - 1] for i in resumes_b), (
        "no resume index landed inside an opcode run"
    )


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


# ------------------------------------------------- service backpressure


def test_service_backpressure_identical_across_interpreters():
    """Shedding decisions land at event (batch) boundaries either way.

    The service applies stream events one at a time so admission control
    can veto each create before it executes; the configured interpreter
    must not change a single shedding decision, counter, or the final
    committed state.
    """

    def report_for(replay):
        service = GcService(
            policy=build_policy(PolicySpec("fixed", {"overwrites_per_collection": 200.0}), 3),
            stream=grammar_stream(make_profile("oltp-churn"), seed=3),
            sim_config=SimulationConfig(replay=replay),
            service=ServiceConfig(
                max_events=15_000,
                checkpoint_every_events=5_000,
                max_heap_bytes=12_000,
                backpressure="shed",
            ),
        )
        report = service.run()
        fields = dataclasses.asdict(report)
        fields.pop("wall_s")
        fields.pop("paced_sleep_s")
        return fields

    scalar = report_for("scalar")
    auto = report_for("auto")
    assert scalar["backpressure"]["shed_events"] > 0, "the drill must shed"
    assert auto == scalar
