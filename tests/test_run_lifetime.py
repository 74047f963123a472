"""A finished run is freed by reference counting.

Each public entry point runs once at TINY scale with the host collector off
and ``DEBUG_SAVEALL`` on. Once its result is dropped, a full collection must
find no ``repro`` object in a reference cycle, and every store the run built
must already be gone. A run object that holds a bound method of itself (or
of its owner) fails here: its whole heap would otherwise live until
CPython's next generation-2 pass.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import weakref

import pytest

from repro.faults.drill import run_crash_recovery_drill
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.telemetry import RunTelemetry
from repro.oo7.config import TINY
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.service.soak import run_soak_drill
from repro.service.stream import grammar_stream
from repro.sim.engine import run_experiment
from repro.sim.simulator import Simulation, SimulationConfig
from repro.sim.spec import (
    ExperimentSpec,
    PolicySpec,
    WorkloadSpec,
    build_policy,
    build_workload,
)
from repro.storage.heap import ObjectStore, StoreConfig
from repro.workload.compiled import CompiledTrace, compile_trace
from repro.workload.tenants import make_profile

from serial_oracle import serially

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)
FIXED = PolicySpec("fixed", {"overwrites_per_collection": 50})
SERVICE_POLICY = PolicySpec("fixed", {"overwrites_per_collection": 200.0})
OO7 = WorkloadSpec("oo7", {"config": TINY})


def _sim_config(**kwargs) -> SimulationConfig:
    return SimulationConfig(store=TINY_STORE, preamble_collections=0, **kwargs)


@functools.lru_cache(maxsize=None)
def _oo7_trace() -> CompiledTrace:
    # Compiled once, before any case starts tracking: the OO7 generator's
    # logical graph (parts <-> connections) is cyclic by design, and it
    # belongs to the workload, not to a run.
    return compile_trace(build_workload(OO7, 0))


def run_fused(tmp_path) -> None:
    Simulation(policy=build_policy(FIXED, 0), config=_sim_config()).run(_oo7_trace())


def run_serial(tmp_path) -> None:
    # The zero-lead oracle: every collection traced inside its pause.
    sim = Simulation(policy=build_policy(FIXED, 0), config=_sim_config())
    serially(sim.run, _oo7_trace())


def run_traced(tmp_path) -> None:
    obs = RunTelemetry(tmp_path / "run.jsonl", kind="run")
    Simulation(policy=build_policy(FIXED, 0), config=_sim_config(), obs=obs).run(
        _oo7_trace()
    )
    obs.close()


def run_service(tmp_path) -> None:
    obs = RunTelemetry(tmp_path / "service.jsonl", kind="service")
    service = GcService(
        policy=build_policy(SERVICE_POLICY, 3),
        stream=grammar_stream(make_profile("oltp-churn"), seed=3),
        service=ServiceConfig(
            max_events=3_000,
            checkpoint_every_events=1_000,
            max_heap_bytes=12_000,
            backpressure="shed",
        ),
        obs=obs,
    )
    report = service.run()
    obs.close()
    assert report.checkpoints and report.backpressure.engaged


def run_engine(tmp_path) -> None:
    # A transactional cell: the engine builds its workload in-process when
    # there is no spare core, and the OO7 graph is cyclic (see above).
    spec = ExperimentSpec(
        policy=FIXED, workload=WorkloadSpec("transactional", {}), sim=_sim_config()
    )
    aggregate = run_experiment(spec, seeds=(0,), jobs=1, cache=None)
    assert not aggregate.failures


def run_drill(tmp_path) -> None:
    spec = ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": 60}),
        workload=WorkloadSpec("transactional", {}),
        sim=_sim_config(),
    )
    plan = FaultPlan(faults=(FaultSpec(site="tx.commit", at=30),))
    assert run_crash_recovery_drill(spec, seed=0, plan=plan).matches_reference


def run_soak(tmp_path) -> None:
    report = run_soak_drill(
        grammar_stream(make_profile("oltp-churn"), seed=7, max_live_clusters=64),
        SERVICE_POLICY,
        seed=7,
        service=ServiceConfig(max_events=3_000, checkpoint_every_events=1_000),
        plan=FaultPlan(faults=(FaultSpec(site="tx.commit", at=300),), seed=3),
    )
    assert report.crashes == 1 and report.matches_reference


@contextlib.contextmanager
def _host_collector_saving_all():
    """Host collector off, unreachable cycles kept in ``gc.garbage``."""
    gc.collect()
    gc.garbage.clear()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _qualname(obj) -> str:
    kind = type(obj)
    return f"{kind.__module__}.{kind.__qualname__}"


@pytest.mark.parametrize(
    "run",
    [run_fused, run_serial, run_traced, run_service, run_engine, run_drill, run_soak],
    ids=["fused", "serial", "traced", "service", "engine", "drill", "soak"],
)
def test_a_finished_run_is_freed_by_reference_counting(run, tmp_path, monkeypatch):
    stores = []
    init = ObjectStore.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stores.append(weakref.ref(self))

    monkeypatch.setattr(ObjectStore, "__init__", tracked_init)
    _oo7_trace()
    with _host_collector_saving_all():
        run(tmp_path)
        alive = sum(ref() is not None for ref in stores)
        gc.collect()
        cyclic = sorted(
            {_qualname(o) for o in gc.garbage if type(o).__module__.startswith("repro")}
        )
    assert stores, "the run built no store"
    assert alive == 0, f"{alive} of {len(stores)} stores outlived their run"
    assert cyclic == []
