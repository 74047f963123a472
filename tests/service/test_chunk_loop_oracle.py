"""The chunk loop against the event-at-a-time loop it replaced.

``GcService.run`` serves column chunks — through the fused kernels wherever
a run is eligible for them, with the service's rules as run boundaries, and
through the guarded interpreter otherwise;
``event_loop_oracle.EventLoopService`` is the loop it had before — event
objects, ``_process``, the auto-commit bracket as three calls. Every
scenario here runs all three routes over the same stream (``replay="scalar"``
keeps a service on the guarded loop) and requires the same report, the same
sampler summary, the same redo log, the same checkpoint positions and the
same recovered state; injected crashes must stop the production loop and
the oracle at the same event with the same resume index, and never enter
the fused interpreter.
"""

import contextlib
import dataclasses
import itertools
import pickle

import pytest

from repro.events import (
    AbortTransactionEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    PhaseMarkerEvent,
    AccessEvent,
    PointerWriteEvent,
    RootEvent,
)
from repro.faults.drill import state_digest
from repro.faults.injector import SimulatedCrash
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service import server as server_module
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.service.stream import grammar_stream, tenant_stream
from repro.sim import batch
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import PolicySpec, build_policy
from repro.storage.heap import StoreConfig
from repro.storage.validation import validate_store
from repro.tx.recovery import RedoLog, recover
from repro.workload import chunks
from repro.workload.compiled import _OP_ROOT
from repro.workload.tenants import make_profile, tenant_mix
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

from event_loop_oracle import EventLoopService
from serial_oracle import serially
from streams import finite_stream

POLICY = PolicySpec("fixed", {"overwrites_per_collection": 200.0})


#: Route name -> (service class, ``SimulationConfig.replay``).
ROUTES = {
    "fused": (GcService, "auto"),
    "guarded": (GcService, "scalar"),
    "oracle": (EventLoopService, "auto"),
}


def _build(cls, stream, knobs, policy=POLICY, sim=None, replay="auto", **kwargs):
    return cls(
        policy=build_policy(policy, 3),
        stream=stream,
        sim_config=dataclasses.replace(sim or SimulationConfig(), replay=replay),
        service=ServiceConfig(**knobs),
        **kwargs,
    )


@contextlib.contextmanager
def _watching():
    """Count entries into the fused interpreter and write down where every
    checkpoint was taken, from outside (module attributes, as the benchmark
    installs its probes — nothing a run's eligibility looks at)."""
    seen = {"fused_runs": 0, "checkpoints_at": []}
    run_fused = batch._run_fused
    build_checkpoint = server_module.build_checkpoint

    def counting(*args):
        seen["fused_runs"] += 1
        return run_fused(*args)

    def noting(store, event_index):
        seen["checkpoints_at"].append(event_index)
        return build_checkpoint(store, event_index)

    batch._run_fused = counting
    server_module.build_checkpoint = noting
    try:
        yield seen
    finally:
        batch._run_fused = run_fused
        server_module.build_checkpoint = build_checkpoint


def _outcome(service, report):
    sim = service.sim
    fields = dataclasses.asdict(report)
    fields.pop("wall_s")
    fields.pop("paced_sleep_s")
    fields.pop("events_fused")  # which interpreter served an event is no result
    fields.pop("stream_wait_s")
    fields.pop("stream_host")  # the oracle reads events, always inline
    wal = sim.tx.wal.stats
    return {
        "report": fields,
        "summary": pickle.dumps(sim.sampler.summary(sim.store, sim.store.iostats)),
        "log": list(sim.redo_log.records),
        "log_counters": (sim.redo_log.appended_total, sim.redo_log.truncated_total),
        "wal": (wal, list(wal.records_by_type.items())),
        "recovered": state_digest(recover(sim.redo_log)),
        "shed_ledger": set(service._shed_oids),
        "committed": (sim.tx.committed, sim.tx.aborted, sim._auto_txid),
        "position": (sim._event_index, sim._event_applied),
    }


def _all_routes(stream, knobs, start_index=0, prepare=None, fused=True, **kwargs):
    """Run the stream down every route and require one outcome, checkpoint
    positions included; returns it. ``fused`` says whether the scenario may
    reach the fused interpreter at all (the other two routes never do)."""
    factories = {k: kwargs.pop(k) for k in ("store", "redo_log") if k in kwargs}
    outcomes = {}
    for route, (cls, replay) in ROUTES.items():
        extra = {k: make() for k, make in factories.items()}
        service = _build(cls, stream, knobs, replay=replay, **kwargs, **extra)
        if prepare is not None:
            prepare(service)
        with _watching() as seen:
            report = service.run(start_index)
        outcomes[route] = _outcome(service, report)
        outcomes[route]["checkpoints_at"] = seen["checkpoints_at"]
        assert bool(seen["fused_runs"]) == (fused and route == "fused"), route
        assert bool(report.events_fused) == bool(seen["fused_runs"]), route
    assert outcomes["fused"] == outcomes["oracle"]
    assert outcomes["guarded"] == outcomes["oracle"]
    return outcomes["fused"]


def _overload_stream():
    return grammar_stream(make_profile("oltp-churn"), seed=3)


def _transactional_events(transactions=120):
    workload = TransactionalWorkload(
        TransactionalSpec(transactions=transactions, abort_probability=0.2),
        seed=11,
        initial_clusters=10,
    )
    return list(workload.events())


def test_overload_with_cascaded_sheds():
    knobs = dict(
        max_events=15_000,
        checkpoint_every_events=5_000,
        max_heap_bytes=8_000,
        backpressure="shed",
    )
    outcome = _all_routes(_overload_stream(), knobs)
    stats = outcome["report"]["backpressure"]
    assert stats["shed_events"] > stats["shed_objects"] > 0, "the run must cascade"


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
    outcome = _all_routes(finite_stream(_create_only_transactions()), knobs)
    stats = outcome["report"]["backpressure"]
    assert stats["shed_transactions"] > 10, "blocks must be shed after they began"
    # Shedding a block skips its rejected create, what referenced it, and
    # everything up to the block's end.
    assert stats["shed_events"] > stats["shed_objects"] >= stats["shed_transactions"]
    assert outcome["committed"][1] > stats["shed_transactions"]  # trace aborts too
    # A shed block is aborted first, then room is made for the next one.
    assert stats["forced_collections"] > 0


#: Two blocks whose stream outlives what the service did to them: 1 KB
#: partitions under a 1000-byte heap bound.
SHED_LEDGER_STREAMS = {
    # The 700-byte create does not fit inside the block: the block is shed
    # and aborted, which rolls object 2 back although its create applied.
    "create-rolled-back-by-a-shed-block": [
        CreateEvent(1, 64), RootEvent(1), BeginTransactionEvent(1),
        CreateEvent(2, 400), PointerWriteEvent(1, "s", 2), CreateEvent(3, 700),
        CommitTransactionEvent(1), AccessEvent(2),
    ],
    # Object 2 never fits; a write inside a block declares it dead, but the
    # block aborts, so to the stream it is alive again.
    "death-announced-in-an-aborted-block": [
        CreateEvent(1, 64), RootEvent(1), CreateEvent(2, 2000),
        PointerWriteEvent(1, "s", 2), BeginTransactionEvent(1),
        PointerWriteEvent(1, "s", None, dies=(2,)), AbortTransactionEvent(1),
        AccessEvent(2),
    ],
}


@pytest.mark.parametrize("name", sorted(SHED_LEDGER_STREAMS))
def test_a_read_of_an_object_the_stream_still_holds_is_shed(name):
    """The shed ledger follows the stream, not the store: an object a shed
    block's abort rolled back, or whose death an aborted block announced,
    stays shed, so the read of it at the end is refused instead of
    reaching the store."""
    events = SHED_LEDGER_STREAMS[name]
    knobs = dict(checkpoint_every_events=100, max_heap_bytes=1_000, backpressure="shed")
    sim = SimulationConfig(
        store=StoreConfig(page_size=256, partition_pages=4, buffer_pages=4),
        preamble_collections=0,
    )
    policy = PolicySpec("fixed", {"overwrites_per_collection": 3.0})
    outcome = _all_routes(finite_stream(events), knobs, policy=policy, sim=sim)
    assert 2 in outcome["shed_ledger"]
    assert outcome["report"]["backpressure"]["shed_events"] == 3
    for replay in ("auto", "scalar"):
        service = _build(
            GcService, finite_stream(events), knobs, policy=policy, sim=sim, replay=replay
        )
        report = service.run()
        assert report.events_seen == len(events)
        assert report.events_applied == len(events) - 3
        validate_store(service.sim.store)


def test_max_events_landing_mid_transaction():
    events = _transactional_events(40)
    begin = [i for i, e in enumerate(events) if isinstance(e, BeginTransactionEvent)][20]
    knobs = dict(max_events=begin + 3, checkpoint_every_events=300)
    outcome = _all_routes(finite_stream(events), knobs)
    assert outcome["report"]["stopped"] == "max-events"
    assert outcome["report"]["next_index"] == begin + 3
    # Stopped inside the block: no final checkpoint, the block is in the log.
    assert outcome["report"]["log_suffix_length"] > 0


def test_graceful_shutdown():
    stream = grammar_stream(make_profile("oltp-churn"), seed=5)

    def signal_at_6100(service):
        sample = service.sim.sampler.on_event

        def sample_then_signal(store, iostats):
            sample(store, iostats)
            if service.sim._event_index >= 6100:
                service.request_shutdown()

        service.sim.sampler.on_event = sample_then_signal

    # A spy hung on the sampler *instance* is something the fused kernels
    # would inline past: the run is not eligible for them, so the flag is
    # raised, and read, behind the very event the test names.
    outcome = _all_routes(
        stream, dict(checkpoint_every_events=2_000), prepare=signal_at_6100, fused=False
    )
    assert outcome["report"]["stopped"] == "shutdown"
    # The first sampled event at or after 6100 raises the flag; the loop
    # stops behind that very event.
    assert 6101 <= outcome["report"]["events_seen"] <= 6110


def test_log_backlog_bound_sets_the_checkpoint_positions():
    """``max_log_records`` with a cadence that never fires: every interior
    checkpoint is the backlog rule's, taken behind the first event whose
    records push the suffix past the bound — the fused route must stop at
    exactly that event, not a horizon's length later."""
    stream = grammar_stream(make_profile("oltp-churn"), seed=7)
    knobs = dict(max_events=9_000, checkpoint_every_events=1_000_000, max_log_records=700)
    outcome = _all_routes(stream, knobs)
    positions = outcome["checkpoints_at"]
    assert len(positions) == outcome["report"]["checkpoints"] > 8
    assert positions[-1] == 9_000  # the final one
    # A singleton logs two or three records, so the bound is crossed every
    # few hundred events, never on a round number.
    gaps = [b - a for a, b in zip([0] + positions, positions[:-1])]
    assert all(700 // 3 <= gap <= 700 for gap in gaps), gaps
    assert len(set(gaps)) > 1


def test_heap_bound_reached_without_shedding():
    """Shaped like the benchmark's ``serve_mix``: a tenant mix under SAGA
    whose heap bound is reached part-way and held by forced collections
    alone. Every refused create stops a fused run before the event, takes
    one guarded step through admission control, and hands back."""
    stream = tenant_stream(
        tenant_mix(["oltp-churn", "bulk-load", "read-browse", "hot-key-skew"]),
        seed=5,
        max_live_clusters=32,
    )
    knobs = dict(
        max_events=10_000,
        checkpoint_every_events=2_500,
        max_heap_bytes=700_000,
        backpressure="shed",
    )
    outcome = _all_routes(
        stream,
        knobs,
        policy=PolicySpec("saga", {"garbage_fraction": 0.3}),
        sim=SimulationConfig(
            store=StoreConfig(page_size=2048, partition_pages=8, buffer_pages=8),
            preamble_collections=0,
        ),
    )
    stats = outcome["report"]["backpressure"]
    assert stats["forced_collections"] > 10
    assert stats["shed_events"] == 0
    assert outcome["report"]["heap_peak_bytes"] <= 700_000


def test_a_trigger_on_the_allocation_clock_fires_on_creates():
    """Under an allocation-clock policy the event that fires a collection
    is a create — the one case where heap occupancy behind the event and
    behind its collections differ. All routes read it behind them."""
    knobs = dict(max_events=8_000, checkpoint_every_events=3_000)
    outcome = _all_routes(
        _overload_stream(),
        knobs,
        policy=PolicySpec("allocation", {"bytes_per_collection": 4_000.0}),
    )
    assert outcome["report"]["collections"] > 20


def test_a_checkpoint_that_makes_the_trigger_due_collects_behind_the_next_event():
    """On the application-I/O clock a checkpoint's own log writes can carry
    the trigger past due. Nothing collects until the next event is behind
    us — whatever it is: here it is always a phase marker, which the fused
    kernels pass without a trigger check, so that one event is a guarded
    step."""
    source = itertools.islice(_overload_stream().events_from(), 5_400)
    events = []
    for event in source:
        if len(events) % 10 == 0:
            events.append(PhaseMarkerEvent(f"phase-{len(events) // 10}"))
        events.append(event)
    outcome = _all_routes(
        finite_stream(events),
        dict(checkpoint_every_events=10),
        policy=PolicySpec("saio", {"io_fraction": 0.3, "initial_interval": 20.0}),
    )
    positions = outcome["checkpoints_at"]
    assert positions[:3] == [10, 20, 30] and len(positions) > 500
    assert all(
        isinstance(events[at], PhaseMarkerEvent) for at in positions if at < len(events)
    )
    assert outcome["report"]["collections"] > 50


def test_root_events_take_a_guarded_step_wherever_they_fall():
    """ROOT is the one database event the fused kernels hand back. Scatter
    roots over an overloaded stream — a fresh object's and the registry's
    again, back to back: the pair that straddles a chunk boundary ends one
    fused run at the chunk's end and makes the next serve nothing; under
    the heap bound many arrive while the shed ledger is non-empty, and
    some of the fresh objects are shed with their ROOT behind them."""
    chunk = chunks.CHUNK_EVENTS
    events = []
    fresh = 100_000
    for event in itertools.islice(_overload_stream().events_from(), 11_000):
        if len(events) % 500 == 0 and events or len(events) == chunk - 2:
            events += [CreateEvent(fresh, 48), RootEvent(fresh), RootEvent(1)]
            fresh += 1
        events.append(event)
    assert isinstance(events[chunk - 1], RootEvent) and isinstance(events[chunk], RootEvent)
    knobs = dict(checkpoint_every_events=4_000, max_heap_bytes=8_000, backpressure="shed")
    outcome = _all_routes(finite_stream(events), knobs)
    assert outcome["report"]["backpressure"]["shed_objects"] > 0

    service = _build(GcService, finite_stream(events), knobs)
    admit = service._admit
    ledger_at_root = []

    def watching(op, a, i, ci, wi):
        if op == _OP_ROOT:
            ledger_at_root.append((bool(service._shed_oids), a in service._shed_oids))
        return admit(op, a, i, ci, wi)

    service._admit = watching
    report = service.run()
    assert len(ledger_at_root) == sum(isinstance(e, RootEvent) for e in events)
    assert {(False, False), (True, False), (True, True)} <= set(ledger_at_root)
    assert 0 < report.events_fused < report.events_seen - len(ledger_at_root)


def test_parallel_collection_service_run():
    """Pipelined collections: the scheduler's margin wake-ups are run
    boundaries like any other, on a chunked stream as on a finite trace,
    and every route matches the zero-lead oracle's."""
    knobs = dict(
        max_events=9_000,
        checkpoint_every_events=3_000,
        max_heap_bytes=20_000,
        backpressure="shed",
    )
    often = PolicySpec("fixed", {"overwrites_per_collection": 20.0})
    serial = serially(_all_routes, _overload_stream(), knobs, policy=often)
    assert _all_routes(_overload_stream(), knobs, policy=often) == serial
    assert serial["report"]["collections"] > 20
    assert serial["report"]["backpressure"]["forced_collections"] > 0


def test_resume_from_a_non_chunk_aligned_index():
    stream = tenant_stream(
        tenant_mix(["oltp-churn", "read-browse"], scale=0.5), seed=4, max_live_clusters=64
    )
    first = _build(GcService, stream, dict(max_events=5_003, checkpoint_every_events=2_000))
    head = first.run()
    assert head.next_index % chunks.CHUNK_EVENTS not in (0, 1)
    log = first.sim.redo_log

    outcome = _all_routes(
        stream,
        dict(max_events=6_000, checkpoint_every_events=2_000),
        start_index=head.next_index,
        store=lambda: recover(log),
        redo_log=lambda: RedoLog(records=list(log.records)),
    )
    assert outcome["report"]["next_index"] == 11_003
    # Checkpoints carry absolute stream positions, whatever chunk-local
    # index the interpreter was at.
    assert outcome["checkpoints_at"] == [7_003, 9_003, 11_003, 11_003]
    assert outcome["position"] == (11_002, True)

    whole = _build(GcService, stream, dict(max_events=11_003, checkpoint_every_events=2_000))
    assert whole.run().final_digest == outcome["report"]["final_digest"]


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
    with _watching() as seen:
        outcome = _outcome(service, service.run())
    outcome["checkpoints_at"] = seen["checkpoints_at"]
    assert 9_000 <= wrapped.pulled <= 9_000 + chunks.CHUNK_EVENTS
    assert outcome == _all_routes(inner, knobs)


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
        with _watching() as watched, pytest.raises(SimulatedCrash) as caught:
            service.run()
        assert not watched["fused_runs"], "a fault run reached the fused kernels"
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
        with _watching() as watched, pytest.raises(SimulatedCrash) as caught:
            service.run()
        assert not watched["fused_runs"]
        seen.append((caught.value.event_index, caught.value.resume_index))
    assert seen[0] == seen[1]
    event_index, resume_index = seen[0]
    if resume_index < event_index:
        assert isinstance(events[resume_index], BeginTransactionEvent)
