"""Backpressure: the heap bound is an invariant, degradation is observable."""

import json

import pytest

from repro.service.backpressure import AdmissionController, BackpressureStats
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.service.stream import grammar_stream
from repro.sim.spec import PolicySpec, build_policy
from repro.storage.heap import ObjectStore, StoreConfig
from repro.workload.tenants import make_profile

POLICY = PolicySpec("fixed", {"overwrites_per_collection": 200.0})


def _store_with(nbytes):
    store = ObjectStore(StoreConfig())
    if nbytes:
        store.create(size=nbytes)
    return store


class TestAdmissionController:
    def test_admits_when_it_fits(self):
        store = _store_with(0)
        controller = AdmissionController(10_000, "shed", lambda: False)
        assert controller.admit(store, 512)
        assert controller.stats == BackpressureStats()

    def test_forces_collections_until_it_fits(self):
        store = ObjectStore(StoreConfig())
        oid = store.create(size=800)
        freed = []

        def collect_once():
            # Model a collection that reclaims the pre-existing object.
            if not freed:
                store.declare_dead(oid)
                pid = store.placements[oid].partition
                survivors = sorted(
                    o for o in store.partitions[pid].residents if o != oid
                )
                store.compact_partition(pid, survivors)
                freed.append(True)
                return True
            return False

        controller = AdmissionController(1000, "shed", collect_once)
        assert controller.admit(store, 900)
        assert controller.stats.engaged == 1
        assert controller.stats.forced_collections == 1

    def test_sheds_when_collection_stops_reclaiming(self):
        store = _store_with(900)
        controller = AdmissionController(1000, "shed", lambda: False)
        assert not controller.admit(store, 900)
        assert controller.stats.engaged == 1
        assert controller.stats.forced_collections == 1  # stopped at no-gain

    def test_delay_mode_counts_delays(self):
        store = _store_with(900)
        controller = AdmissionController(
            1000, "delay", lambda: False, max_forced_collections=3
        )
        assert not controller.admit(store, 900)
        assert controller.stats.delays == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(0, "shed", lambda: False)
        with pytest.raises(ValueError):
            AdmissionController(100, "off", lambda: False)


def _overloaded_service(bound, telemetry=None, mode="shed"):
    obs = None
    if telemetry is not None:
        from repro.obs.telemetry import RunTelemetry

        obs = RunTelemetry(telemetry, kind="service", label="overload")
    return GcService(
        policy=build_policy(POLICY, 3),
        stream=grammar_stream(make_profile("oltp-churn"), seed=3),
        service=ServiceConfig(
            max_events=15_000,
            checkpoint_every_events=5_000,
            max_heap_bytes=bound,
            backpressure=mode,
        ),
        obs=obs,
    ), obs


def test_overload_never_exceeds_heap_bound():
    """The acceptance property: bounded heap, visible shed counters."""
    bound = 12_000  # far below the workload's natural live set
    service, _ = _overloaded_service(bound)
    report = service.run()
    assert report.heap_peak_bytes <= bound
    assert report.backpressure.engaged > 0
    assert report.backpressure.shed_events > 0
    assert report.backpressure.shed_objects > 0
    assert report.backpressure.forced_collections > 0
    # Shed work is skipped, not applied: seen > applied.
    assert report.events_applied < report.events_seen


def test_generous_bound_forces_collections_without_shedding():
    service, _ = _overloaded_service(60_000)
    report = service.run()
    assert report.heap_peak_bytes <= 60_000
    assert report.backpressure.shed_events == 0
    assert report.events_applied == report.events_seen


def test_degradation_counters_surface_in_telemetry(tmp_path):
    path = tmp_path / "svc.jsonl"
    service, obs = _overloaded_service(12_000, telemetry=path)
    service.run()
    obs.close()
    metrics = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("type") == "metrics":
            metrics = {**record.get("counters", {}), **record.get("gauges", {})}
    assert metrics["service.backpressure.shed_events"] > 0
    assert metrics["service.backpressure.engaged"] > 0
    assert metrics["service.checkpoints"] > 0
    assert metrics["service.heap_peak_bytes"] <= 12_000


def test_shed_cascade_keeps_stream_coherent():
    """Events referencing shed objects are skipped, never applied.

    If the cascade leaked, the store would fault on a pointer write whose
    source or target was never created — completing the run is the proof.
    """
    service, _ = _overloaded_service(8_000)
    report = service.run()
    assert report.backpressure.shed_events > report.backpressure.shed_objects
    # The ledger prunes on death annotations; it must not grow unboundedly.
    assert len(service._shed_oids) < 5_000


def test_forced_collection_inside_a_transaction_leaves_its_deaths_undoable():
    """Forced collections obey the rule triggered ones obey: never inside
    an open transaction. A collection there could reclaim objects the block
    itself declared dead, and a later abort — the trace's or the shed
    path's — could not resurrect them (``StoreError: unknown object``, as
    this run raised until admission aborted the block first)."""
    from repro.service.stream import finite_stream
    from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

    workload = TransactionalWorkload(
        TransactionalSpec(transactions=120, abort_probability=0.2),
        seed=11,
        initial_clusters=10,
    )
    service = GcService(
        policy=build_policy(POLICY, 3),
        stream=finite_stream(list(workload.events())),
        service=ServiceConfig(
            checkpoint_every_events=700, max_heap_bytes=14_000, backpressure="shed"
        ),
    )
    report = service.run()
    assert report.heap_peak_bytes <= 14_000
    stats = report.backpressure
    assert stats.shed_transactions > 0, "no block hit the bound after it began"
    assert stats.forced_collections > 0
