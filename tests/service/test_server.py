"""GcService: parity with plain simulation, checkpoints, graceful shutdown."""

import dataclasses
import itertools

import pytest

from repro.events import RootEvent
from repro.faults.drill import state_digest
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.service.stream import ReplayableStream, finite_stream, grammar_stream
from repro.sim.simulator import Simulation, SimulationConfig
from repro.sim.spec import PolicySpec, build_policy
from repro.workload.tenants import make_profile

POLICY = PolicySpec("fixed", {"overwrites_per_collection": 200.0})


def _events(n=8000, seed=7):
    stream = grammar_stream(make_profile("oltp-churn"), seed=seed)
    return list(itertools.islice(stream.events_from(), n))


def _service(stream, **knobs):
    defaults = dict(max_events=8000, checkpoint_every_events=2000)
    defaults.update(knobs)
    return GcService(
        policy=build_policy(POLICY, 7),
        stream=stream,
        service=ServiceConfig(**defaults),
    )


def test_service_matches_plain_simulation():
    """The service loop is the simulation loop plus durability plumbing.

    Over the same finite event sequence (backpressure off), the committed
    reachable state must be byte-identical to a redo-logging Simulation's.
    """
    events = _events()
    service = _service(finite_stream(events))
    report = service.run()

    sim = Simulation(
        policy=build_policy(POLICY, 7),
        config=SimulationConfig(enable_redo_log=True, enable_wal=True),
    )
    sim.run(events)

    assert report.events_applied == len(events)
    assert report.final_digest == state_digest(sim.store)


def test_checkpoints_truncate_the_log():
    events = _events()
    service = _service(finite_stream(events))
    report = service.run()
    # 8000 events / 2000 cadence = 3 interior checkpoints + 1 final.
    assert report.checkpoints >= 4
    assert report.log_suffix_length == 0  # final checkpoint flushed
    assert report.log_truncated_total > 0
    assert report.wal["checkpoints"] == report.checkpoints
    log = service.sim.redo_log
    assert log.checkpoints_installed == report.checkpoints
    assert log.last_checkpoint() is not None


def test_max_log_records_forces_early_checkpoint():
    events = _events(4000)
    service = _service(
        finite_stream(events),
        max_events=4000,
        checkpoint_every_events=1_000_000,  # cadence never fires
        max_log_records=500,
    )
    report = service.run()
    assert report.checkpoints > 1  # backlog bound forced interior ones
    assert service.sim.redo_log.suffix_length == 0


def test_graceful_shutdown_drains_and_resumes():
    """Shutdown stops at a quiescent point; a successor resumes exactly."""
    events = _events()
    trigger_at = 3111
    first = _service(finite_stream(events, label="shutdown-test"), max_events=None)
    sample = first.sim.sampler.on_event

    def sample_then_signal(store, iostats):
        # A SIGTERM landing while event ``trigger_at`` is being served. (The
        # stream runs up to a chunk ahead of the service, so the signal
        # cannot come from the generator.)
        sample(store, iostats)
        if first.sim._event_index >= trigger_at:
            first.request_shutdown()

    first.sim.sampler.on_event = sample_then_signal
    report = first.run()
    assert report.stopped == "shutdown"
    assert trigger_at <= report.events_seen < len(events)
    assert report.log_suffix_length == 0  # final checkpoint covered it all

    # A fresh service resumes from next_index over the same underlying
    # events and must land on the full-run digest.
    rest = finite_stream(events, label="rest")
    second = GcService(
        policy=build_policy(POLICY, 7),
        stream=rest,
        service=ServiceConfig(max_events=None),
        store=None,
        redo_log=first.sim.redo_log,
    )
    # Recover exactly as a restart would: from the final checkpoint.
    from repro.tx.recovery import recover_with_info

    recovered, info = recover_with_info(first.sim.redo_log)
    assert info.from_checkpoint
    assert info.records_replayed == 0  # nothing after the final checkpoint
    second = GcService(
        policy=build_policy(POLICY, 7),
        stream=rest,
        service=ServiceConfig(max_events=None),
        store=recovered,
        redo_log=first.sim.redo_log,
    )
    second.run(start_index=report.next_index)

    reference = _service(finite_stream(events))
    ref_report = reference.run()
    assert state_digest(second.sim.store) == ref_report.final_digest


@pytest.mark.parametrize("hook", ["selection", "checkpoint"])
def test_shutdown_on_the_fused_route_stops_at_the_next_boundary(hook):
    """On the fused route the flag is read where the run is handed back —
    a collection, a checkpoint, the end of a chunk — so a request raised
    from one of those stops the service right there, quiescent; raised
    anywhere else it waits at most ``CHUNK_EVENTS`` events. The final
    checkpoint covers everything and a successor resumes exactly."""
    from repro.service.stream import CHUNK_EVENTS
    from repro.tx.recovery import recover_with_info

    events = _events()
    first = _service(finite_stream(events), max_events=None)
    raised_at = []

    def signal(service):
        if service.sim._event_index >= 3111 and not raised_at:
            raised_at.append(service.sim._event_index)
            service.request_shutdown()

    if hook == "selection":
        # Not a component the kernels inline: the collector asks it.
        select = first.sim.selection.select

        def select_then_signal(store):
            signal(first)
            return select(store)

        first.sim.selection.select = select_then_signal
    else:
        checkpoint = first._checkpoint

        def checkpoint_then_signal(report):
            checkpoint(report)
            signal(first)

        first._checkpoint = checkpoint_then_signal
    report = first.run()
    assert report.stopped == "shutdown"
    assert report.events_fused >= 0.95 * report.events_seen, "not the fused route"
    assert raised_at[0] < report.events_seen <= raised_at[0] + 1 + CHUNK_EVENTS
    assert report.events_seen < len(events)
    assert not first.sim.tx.in_transaction
    assert report.log_suffix_length == 0  # final checkpoint covered it all

    recovered, info = recover_with_info(first.sim.redo_log)
    assert info.from_checkpoint and info.records_replayed == 0
    second = GcService(
        policy=build_policy(POLICY, 7),
        stream=finite_stream(events, label="rest"),
        service=ServiceConfig(max_events=None),
        store=recovered,
        redo_log=first.sim.redo_log,
    )
    second.run(start_index=report.next_index)
    assert state_digest(second.sim.store) == _service(finite_stream(events)).run().final_digest


def test_checkpoint_telemetry_round_trips_through_repro_metrics(tmp_path):
    """Each checkpoint event carries its stall and the snapshot's object
    count; ``repro metrics`` prints count and p50/max stall from the file."""
    from repro.obs.report import digest_file, format_file_digest
    from repro.obs.telemetry import RunTelemetry

    obs = RunTelemetry(tmp_path / "serve.jsonl", kind="service", label="ckpt")
    events = _events()
    # The kernels serve everything but ROOT, which takes a guarded step.
    fused = len(events) - sum(isinstance(e, RootEvent) for e in events)
    service = GcService(
        policy=build_policy(POLICY, 7),
        stream=finite_stream(events),
        service=ServiceConfig(max_events=8000, checkpoint_every_events=2000),
        obs=obs,
    )
    report = service.run()
    digest = digest_file(obs.close())

    checkpoints = [e for e in digest.events if e["name"] == "checkpoint"]
    assert len(checkpoints) == report.checkpoints
    assert all(e["stall_ms"] > 0 for e in checkpoints)
    last = service.sim.redo_log.last_checkpoint()
    assert checkpoints[-1]["objects"] == len(last.oids)
    assert len(last.oids) == len(service.sim.store.objects)
    stalls = digest.checkpoint_stalls_ms
    assert stalls == [e["stall_ms"] for e in checkpoints]
    text = format_file_digest(digest)
    assert report.events_seen == 8000 > fused > 7900
    assert report.events_fused == fused
    assert digest.metrics["gauges"]["service.events_fused"] == fused
    assert (
        f"service: 8,000 events, {fused:,} ({fused / 8000:.1%}) served by the fused kernels"
        in text
    )
    assert f"checkpoints: {report.checkpoints}, stall p50 " in text
    # A materialised stream is cut inline, by the consumer.
    stop = [e for e in digest.events if e["name"] == "service_stop"][-1]
    assert (stop["stream_host"], stop["stream_fallbacks"]) == ("inline", 0)
    assert f"stream: host inline, {stop['stream_wait_s']:.3f} s waiting" in text
    assert digest.metrics["gauges"]["service.stream_fallbacks"] == 0
    assert f"max {max(stalls):.3f} ms" in text
    assert "gc pauses: p50 " in text


def test_pacing_is_wall_clock_only():
    events = _events(600)
    paced = _service(
        finite_stream(events), max_events=600, target_ops_per_s=20_000.0
    )
    unpaced = _service(finite_stream(events), max_events=600)
    paced_report = paced.run()
    unpaced_report = unpaced.run()
    assert paced_report.final_digest == unpaced_report.final_digest
    assert paced_report.paced_sleep_s > 0.0


def test_service_forces_redo_and_wal_on():
    service = GcService(
        policy=build_policy(POLICY, 7),
        stream=finite_stream([]),
        sim_config=SimulationConfig(enable_redo_log=False, enable_wal=False),
    )
    assert service.sim.redo_log is not None
    assert service.sim.tx.wal is not None


def test_service_config_validation():
    with pytest.raises(ValueError):
        ServiceConfig(target_ops_per_s=0.0)
    with pytest.raises(ValueError):
        ServiceConfig(checkpoint_every_events=0)
    with pytest.raises(ValueError):
        ServiceConfig(max_log_records=0)
    with pytest.raises(ValueError):
        ServiceConfig(max_heap_bytes=0)
    with pytest.raises(ValueError):
        ServiceConfig(backpressure="drop")
    with pytest.raises(ValueError):
        ServiceConfig(max_events=-1)
    frozen = ServiceConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        frozen.backpressure = "shed"
