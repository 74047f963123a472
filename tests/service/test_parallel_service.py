"""Service mode with the partition-parallel collector.

The service admits stream events one at a time, pumping speculative
traces between events and falling back to stop-the-world collections
under backpressure (``_forced_collect`` bypasses the pump). Every
shedding decision, counter and checkpoint must be identical to the
serial collector's.
"""

import dataclasses

import pytest

from repro.service.server import GcService, ServiceConfig
from repro.service.stream import grammar_stream
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import PolicySpec, build_policy
from repro.workload.tenants import make_profile


def _report(collection, gc_workers, *, backpressure=None):
    service_kwargs = dict(max_events=15_000, checkpoint_every_events=5_000)
    if backpressure:
        service_kwargs.update(max_heap_bytes=12_000, backpressure=backpressure)
    service = GcService(
        policy=build_policy(
            PolicySpec("fixed", {"overwrites_per_collection": 200.0}), 3
        ),
        stream=grammar_stream(make_profile("oltp-churn"), seed=3),
        sim_config=SimulationConfig(
            collection=collection, gc_workers=gc_workers
        ),
        service=ServiceConfig(**service_kwargs),
    )
    report = service.run()
    fields = dataclasses.asdict(report)
    fields.pop("wall_s")
    fields.pop("paced_sleep_s")
    fields.pop("stream_wait_s")
    return fields


@pytest.mark.parametrize("workers", [1, 4])
def test_service_report_identical_to_serial(workers):
    assert _report("parallel", workers) == _report("serial", 1)


@pytest.mark.parametrize("workers", [1, 4])
def test_service_backpressure_identical_to_serial(workers):
    """Forced collections run stop-the-world immediately — shedding
    decisions must not shift by a single event."""
    serial = _report("serial", 1, backpressure="shed")
    assert serial["backpressure"]["shed_events"] > 0, "the drill must shed"
    assert _report("parallel", workers, backpressure="shed") == serial
