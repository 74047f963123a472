"""The chunk loop against the event-at-a-time loop it replaced.

``GcService.run`` serves column chunks through the guarded interpreter;
``event_loop_oracle.EventLoopService`` is the loop it had before — event
objects, ``_process``, the auto-commit bracket as three calls. Every
scenario here runs both over the same stream and requires the same
report, the same sampler summary, the same redo log and the same
recovered state; injected crashes must stop both at the same event with
the same resume index.
"""

import dataclasses
import pickle

import pytest

from repro.events import (
    AbortTransactionEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    PointerWriteEvent,
    RootEvent,
)
from repro.faults.drill import state_digest
from repro.faults.injector import SimulatedCrash
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service import stream as stream_module
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.service.stream import finite_stream, grammar_stream, tenant_stream
from repro.sim.spec import PolicySpec, build_policy
from repro.tx.recovery import RedoLog, recover
from repro.workload.tenants import make_profile, tenant_mix
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

from event_loop_oracle import EventLoopService

POLICY = PolicySpec("fixed", {"overwrites_per_collection": 200.0})


def _build(cls, stream, knobs, **kwargs):
    return cls(
        policy=build_policy(POLICY, 3),
        stream=stream,
        service=ServiceConfig(**knobs),
        **kwargs,
    )


def _outcome(service, report):
    sim = service.sim
    fields = dataclasses.asdict(report)
    fields.pop("wall_s")
    fields.pop("paced_sleep_s")
    return {
        "report": fields,
        "summary": pickle.dumps(sim.sampler.summary(sim.store, sim.store.iostats)),
        "log": list(sim.redo_log.records),
        "log_counters": (sim.redo_log.appended_total, sim.redo_log.truncated_total),
        "recovered": state_digest(recover(sim.redo_log)),
        "shed_ledger": set(service._shed_oids),
        "committed": (sim.tx.committed, sim.tx.aborted),
    }


def _both(stream, knobs, start_index=0, prepare=None, **kwargs):
    """Run the chunk loop and the oracle; return both outcomes."""
    outcomes = []
    for cls in (GcService, EventLoopService):
        extra = {k: v() for k, v in kwargs.items()}
        service = _build(cls, stream, knobs, **extra)
        if prepare is not None:
            prepare(service)
        outcomes.append(_outcome(service, service.run(start_index)))
    return outcomes


def _overload_stream():
    return grammar_stream(make_profile("oltp-churn"), seed=3)


def _transactional_events(transactions=120):
    workload = TransactionalWorkload(
        TransactionalSpec(transactions=transactions, abort_probability=0.2),
        seed=11,
        initial_clusters=10,
    )
    return list(workload.events())


@pytest.mark.parametrize("mode", ["shed", "delay"])
def test_overload_with_cascaded_sheds(mode):
    knobs = dict(
        max_events=15_000,
        checkpoint_every_events=5_000,
        max_heap_bytes=8_000,
        backpressure=mode,
    )
    chunked, oracle = _both(_overload_stream(), knobs)
    stats = chunked["report"]["backpressure"]
    assert stats["shed_events"] > stats["shed_objects"] > 0, "the run must cascade"
    if mode == "delay":
        assert stats["delays"] > 0
    assert chunked == oracle


def _create_only_transactions(count=300, keep=8):
    """Blocks that only allocate (a chain of five objects linked into a
    registry slot, every fourth block aborted by the trace itself); old
    committed chains are cut loose *between* blocks, so forced collections
    have garbage to find but never reclaim an in-flight block's deaths."""
    events = [CreateEvent(1, 64), RootEvent(1)]
    oid = 2
    live = []
    for txid in range(1, count + 1):
        if len(live) > keep:
            slot, members = live.pop(0)
            events.append(PointerWriteEvent(1, slot, None, dies=members))
        events.append(BeginTransactionEvent(txid))
        members = []
        successor = None
        for _ in range(5):
            pointers = (("next", successor),) if successor is not None else ()
            events.append(CreateEvent(oid, 120 + 40 * (txid % 5), pointers=pointers))
            members.append(oid)
            successor = oid
            oid += 1
        events.append(PointerWriteEvent(1, f"chain{txid}", successor))
        if txid % 4 == 0:
            events.append(AbortTransactionEvent(txid))
        else:
            events.append(CommitTransactionEvent(txid))
            live.append((f"chain{txid}", tuple(reversed(members))))
    return events


def test_transaction_blocks_shed_mid_transaction():
    knobs = dict(
        checkpoint_every_events=500,
        max_heap_bytes=8_000,
        backpressure="shed",
    )
    chunked, oracle = _both(finite_stream(_create_only_transactions()), knobs)
    stats = chunked["report"]["backpressure"]
    assert stats["shed_transactions"] > 10, "blocks must be shed after they began"
    # Shedding a block skips its rejected create, what referenced it, and
    # everything up to the block's end.
    assert stats["shed_events"] > stats["shed_objects"] >= stats["shed_transactions"]
    assert chunked["committed"][1] > stats["shed_transactions"]  # trace aborts too
    assert chunked == oracle


def test_max_events_landing_mid_transaction():
    events = _transactional_events(40)
    begin = [i for i, e in enumerate(events) if isinstance(e, BeginTransactionEvent)][20]
    knobs = dict(max_events=begin + 3, checkpoint_every_events=300)
    chunked, oracle = _both(finite_stream(events), knobs)
    assert chunked["report"]["stopped"] == "max-events"
    assert chunked["report"]["next_index"] == begin + 3
    # Stopped inside the block: no final checkpoint, the block is in the log.
    assert chunked["report"]["log_suffix_length"] > 0
    assert chunked == oracle


def test_graceful_shutdown():
    stream = grammar_stream(make_profile("oltp-churn"), seed=5)

    def signal_at_6100(service):
        sample = service.sim.sampler.on_event

        def sample_then_signal(store, iostats):
            sample(store, iostats)
            if service.sim._event_index >= 6100:
                service.request_shutdown()

        service.sim.sampler.on_event = sample_then_signal

    chunked, oracle = _both(
        stream, dict(checkpoint_every_events=2_000), prepare=signal_at_6100
    )
    assert chunked["report"]["stopped"] == "shutdown"
    # The first sampled event at or after 6100 raises the flag; the loop
    # stops behind that very event.
    assert 6101 <= chunked["report"]["events_seen"] <= 6110
    assert chunked == oracle


def test_resume_from_a_non_chunk_aligned_index():
    stream = tenant_stream(
        tenant_mix(["oltp-churn", "read-browse"], scale=0.5), seed=4, max_live_clusters=64
    )
    first = _build(GcService, stream, dict(max_events=5_003, checkpoint_every_events=2_000))
    head = first.run()
    assert head.next_index % stream_module.CHUNK_EVENTS not in (0, 1)
    log = first.sim.redo_log

    chunked, oracle = _both(
        stream,
        dict(max_events=6_000, checkpoint_every_events=2_000),
        start_index=head.next_index,
        store=lambda: recover(log),
        redo_log=lambda: RedoLog(records=list(log.records)),
    )
    assert chunked["report"]["next_index"] == 11_003
    assert chunked == oracle

    whole = _build(GcService, stream, dict(max_events=11_003, checkpoint_every_events=2_000))
    assert whole.run().final_digest == chunked["report"]["final_digest"]


class _EventsOnly:
    """Shaped like ``bench/probe.TracedStream``: a label and
    ``events_from`` returning a bare ``iter(callable, sentinel)``."""

    def __init__(self, inner):
        self._inner = inner
        self.label = inner.label
        self.pulled = 0

    def events_from(self, start_index=0):
        step = self._inner.events_from(start_index).__next__

        def counted():
            self.pulled += 1
            return step()

        return iter(counted, object())


def test_events_only_wrapper_is_served_through_the_chunk_loop():
    inner = _overload_stream()
    knobs = dict(
        max_events=9_000,
        checkpoint_every_events=3_000,
        max_heap_bytes=12_000,
        backpressure="shed",
    )
    wrapped = _EventsOnly(inner)
    service = _build(GcService, wrapped, knobs)
    outcome = _outcome(service, service.run())
    assert 9_000 <= wrapped.pulled <= 9_000 + stream_module.CHUNK_EVENTS
    chunked, oracle = _both(inner, knobs)
    assert outcome == chunked == oracle


CRASH_SITES = [
    pytest.param("tx.begin", 1_500, id="tx.begin"),
    pytest.param("tx.commit", 1_500, id="tx.commit"),
    pytest.param("io.write", 2_500, id="io.write"),
    pytest.param("io.write", 2_501, id="io.write-next"),
    pytest.param("gc.collect", 3, id="gc.collect"),
]


@pytest.mark.parametrize("site, at", CRASH_SITES)
def test_injected_crash_stops_both_loops_at_the_same_point(site, at):
    plan = FaultPlan(faults=(FaultSpec(site=site, at=at),), seed=1)
    knobs = dict(max_events=12_000, checkpoint_every_events=3_000)
    seen = []
    for cls in (GcService, EventLoopService):
        stream = grammar_stream(make_profile("oltp-churn"), seed=7, max_live_clusters=64)
        service = _build(cls, stream, knobs, faults=plan)
        with pytest.raises(SimulatedCrash) as caught:
            service.run()
        crash = caught.value
        log = service.sim.redo_log
        log.truncate_uncommitted()
        seen.append(
            {
                "site": (crash.site, crash.occurrence),
                "event_index": crash.event_index,
                "resume_index": crash.resume_index,
                "log": list(log.records),
                "wal": service.sim.tx.wal.stats,
                "recovered": state_digest(recover(log)),
                "fired": list(service.sim.faults.fired),
            }
        )
    chunked, oracle = seen
    assert chunked["event_index"] is not None
    assert chunked == oracle


def test_crash_inside_an_explicit_transaction_resumes_at_its_begin():
    events = _transactional_events(60)
    plan = FaultPlan(faults=(FaultSpec(site="io.write", at=40),), seed=1)
    seen = []
    for cls in (GcService, EventLoopService):
        service = _build(
            cls, finite_stream(events), dict(checkpoint_every_events=400), faults=plan
        )
        with pytest.raises(SimulatedCrash) as caught:
            service.run()
        seen.append((caught.value.event_index, caught.value.resume_index))
    assert seen[0] == seen[1]
    event_index, resume_index = seen[0]
    if resume_index < event_index:
        assert isinstance(events[resume_index], BeginTransactionEvent)
