"""Golden service run: durability may get faster, never different.

One small seeded :class:`GcService` run with every durability piece live
(WAL, redo log, periodic checkpoints, a heap bound that forces
collections). The literals pin what a change to the checkpoint or log
representation must not move: the checkpoint's modelled size (through
``wal.pages_written`` / ``bytes_logged``), the number of log records, the
simulated I/O the sampler saw, the recovered logical state, and the
recovered store's physical placement (restore order decides first-fit
placement).
"""

import hashlib
import pickle

from stored import objects

from repro.faults.drill import state_digest
from repro.fleet import parse_policy
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.service.stream import tenant_stream
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import build_policy
from repro.storage.heap import StoreConfig
from repro.storage.validation import validate_store
from repro.tx.recovery import recover
from repro.workload.tenants import tenant_mix

STORE = StoreConfig(page_size=2048, partition_pages=8, buffer_pages=8)

#: Measured at the commit before the durability records went columnar.
GOLDEN = {
    "checkpoints": 5,
    "collections": 111,
    "forced_collections": 87,
    "final_digest": "5e0ab763f2c3878eb6e27d6e8d59edba386bffbd273050a90087eac8cfd6aa10",
    "wal_pages_written": 4262,
    "wal_bytes_logged": 635304,
    "log_appended_total": 12485,
    "summary_sha256": (
        "f9cfb9e9f43ebafe6f3b9febbe7d072f5ab093a9e54d85e6d211866a145f52e7"
    ),
    "recovered_placement_sha256": (
        "c3a005b360325c8d98e0c3959df6d1441d8b23231a282bbf42b64fd6bbc26b43"
    ),
}


def _placement_digest(store) -> str:
    sha = hashlib.sha256()
    for oid in sorted(objects(store)):
        pid, offset, _size = store.placements.locate(oid)
        sha.update(f"{oid}:{pid}:{offset};".encode())
    return sha.hexdigest()


def test_golden_service_run():
    service = GcService(
        policy=build_policy(parse_policy("saga:0.3"), 3),
        stream=tenant_stream(
            tenant_mix(["oltp-churn", "bulk-load"]), seed=3, max_live_clusters=32
        ),
        sim_config=SimulationConfig(store=STORE, preamble_collections=0),
        service=ServiceConfig(
            checkpoint_every_events=1500,
            max_heap_bytes=400_000,
            backpressure="shed",
            max_events=6000,
        ),
    )
    report = service.run()
    sim = service.sim

    assert report.events_seen == 6000
    assert report.checkpoints == GOLDEN["checkpoints"]
    assert report.collections == GOLDEN["collections"]
    assert report.backpressure.forced_collections == GOLDEN["forced_collections"]
    assert report.final_digest == GOLDEN["final_digest"]
    assert report.wal["pages_written"] == GOLDEN["wal_pages_written"]
    assert report.wal["bytes_logged"] == GOLDEN["wal_bytes_logged"]
    assert report.wal["checkpoints"] == GOLDEN["checkpoints"]
    assert report.log_appended_total == GOLDEN["log_appended_total"]
    summary = sim.sampler.summary(sim.store, sim.store.iostats)
    assert hashlib.sha256(pickle.dumps(summary)).hexdigest() == GOLDEN["summary_sha256"]

    recovered = recover(sim.redo_log, STORE)
    validate_store(recovered)
    assert state_digest(recovered) == GOLDEN["final_digest"]
    assert _placement_digest(recovered) == GOLDEN["recovered_placement_sha256"]
