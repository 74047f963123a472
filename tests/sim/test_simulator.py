"""Tests for the simulation engine: triggering, dispatch, opportunism."""

import pickle

import pytest

from repro.core.estimators import OracleEstimator
from repro.core.extensions import OpportunisticPolicy
from repro.core.fixed import AllocationRatePolicy, FixedRatePolicy
from repro.core.rate_policy import TimeBase
from repro.core.saio import SaioPolicy
from repro.events import (
    AccessEvent,
    CreateEvent,
    IdleEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
    RootEvent,
    UpdateEvent,
)
from repro.oo7.config import TINY
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage.heap import StoreConfig
from repro.storage.iostats import IOCategory
from repro.workload.application import Oo7Application

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


def _config(**kwargs) -> SimulationConfig:
    defaults = dict(store=TINY_STORE, preamble_collections=0)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def _churn_trace(cycles: int):
    """A hand-built trace: root + repeatedly created/killed 600-byte objects."""
    yield PhaseMarkerEvent("churn")
    yield CreateEvent(1, 50)
    yield RootEvent(1)
    oid = 2
    for _ in range(cycles):
        yield CreateEvent(oid, 600)
        yield PointerWriteEvent(1, "x", oid)
        yield PointerWriteEvent(1, "x", None, dies=(oid,))
        oid += 1


def test_fixed_policy_triggers_every_n_overwrites():
    sim = Simulation(policy=FixedRatePolicy(10), config=_config())
    result = sim.run(_churn_trace(100))
    # 100 overwrites at 1 per cycle... each cycle has 2 pointer writes but
    # only the second overwrites (slot null → value is a store).
    overwrites = result.store.pointer_overwrites
    assert overwrites == 100
    assert result.summary.collections == overwrites // 10


def test_collections_reclaim_garbage_end_to_end():
    sim = Simulation(policy=FixedRatePolicy(5), config=_config())
    result = sim.run(_churn_trace(60))
    assert result.summary.total_reclaimed_bytes > 0
    assert result.store.garbage.undeclared == 0
    # Garbage left is bounded: collections kept pace with churn.
    assert result.summary.final_garbage_fraction < 0.9


def test_all_event_kinds_dispatch():
    sim = Simulation(policy=FixedRatePolicy(1000), config=_config())
    trace = [
        PhaseMarkerEvent("p"),
        CreateEvent(1, 50),
        RootEvent(1),
        CreateEvent(2, 60, pointers=(("a", 1),)),
        AccessEvent(2),
        UpdateEvent(2),
        PointerWriteEvent(2, "a", None),
        IdleEvent(),
    ]
    result = sim.run(trace)
    assert result.summary.events == 6  # markers and idles are not DB events
    assert result.store.placements.row(2).pointers["a"] is None


def test_unknown_event_rejected():
    sim = Simulation(policy=FixedRatePolicy(10), config=_config())
    with pytest.raises(TypeError):
        sim.run([object()])


def test_max_collections_guard():
    config = _config(max_collections=3)
    sim = Simulation(policy=FixedRatePolicy(1), config=config)
    with pytest.raises(RuntimeError, match="max_collections"):
        sim.run(_churn_trace(100))


def test_saio_time_base_counts_application_io():
    """SAIO triggers on application I/O, not overwrites: a trace with heavy
    I/O but no overwrites still collects."""
    def read_heavy():
        yield CreateEvent(1, 50)
        yield RootEvent(1)
        oids = []
        for index in range(20):
            oid = 2 + index
            yield CreateEvent(oid, 1500)
            yield PointerWriteEvent(1, f"s{index}", oid)
            oids.append(oid)
        for _round in range(30):
            for oid in oids:
                yield AccessEvent(oid)

    sim = Simulation(
        policy=SaioPolicy(io_fraction=0.10, initial_interval=50),
        config=_config(),
    )
    result = sim.run(read_heavy())
    assert result.store.pointer_overwrites == 0
    assert result.summary.collections > 0


def test_phase_markers_reach_sampler():
    sim = Simulation(policy=FixedRatePolicy(50), config=_config())
    result = sim.run(Oo7Application(TINY, seed=0).events())
    assert list(result.sampler.phase_boundaries) == [
        "GenDB",
        "Reorg1",
        "Traverse",
        "Reorg2",
    ]


def test_opportunistic_policy_collects_during_idle():
    inner = FixedRatePolicy(1_000_000)  # never triggers on its own
    policy = OpportunisticPolicy(
        inner, OracleEstimator(), idle_threshold=3, min_garbage_bytes=100
    )

    def trace():
        yield from _churn_trace(5)  # creates ~3 KB of garbage
        for _ in range(10):
            yield IdleEvent()

    sim = Simulation(policy=policy, config=_config())
    result = sim.run(trace())
    assert policy.opportunistic_collections >= 1
    assert result.summary.collections >= 1


def test_opportunism_not_triggered_under_activity():
    inner = FixedRatePolicy(1_000_000)
    policy = OpportunisticPolicy(
        inner, OracleEstimator(), idle_threshold=5, min_garbage_bytes=100
    )
    sim = Simulation(policy=policy, config=_config())
    sim.run(_churn_trace(20))  # no idle events at all
    assert policy.opportunistic_collections == 0


def test_simulation_result_exposes_collections():
    sim = Simulation(policy=FixedRatePolicy(20), config=_config())
    result = sim.run(_churn_trace(50))
    assert len(result.collections) == result.summary.collections


def test_idle_event_ticks_each_count():
    """IdleEvent(ticks=N) represents N quiet ticks, not one."""
    from repro.core.estimators import OracleEstimator

    inner = FixedRatePolicy(1_000_000)
    # min_garbage_bytes=0 so every completed quiet stretch fires, making the
    # tick arithmetic the only variable under test.
    policy = OpportunisticPolicy(
        inner, OracleEstimator(), idle_threshold=4, min_garbage_bytes=0
    )

    def trace():
        yield from _churn_trace(5)
        yield IdleEvent(ticks=8)  # two full quiet stretches in one event

    sim = Simulation(policy=policy, config=_config())
    sim.run(trace())
    assert policy.opportunistic_collections == 2


def _tick(store, base) -> None:
    """Advance one store counter by one unit of ``base``."""
    if base is TimeBase.OVERWRITES:
        store.pointer_overwrites += 1
    elif base is TimeBase.ALLOCATED:
        store.bytes_allocated_total += 1
    else:
        store.iostats.record_read(IOCategory.APPLICATION)


@pytest.mark.parametrize(
    "policy, base",
    [
        (lambda: FixedRatePolicy(20), TimeBase.OVERWRITES),
        (lambda: AllocationRatePolicy(8_000), TimeBase.ALLOCATED),
        (lambda: SaioPolicy(io_fraction=0.10, initial_interval=50), TimeBase.APP_IO),
    ],
    ids=["overwrites", "allocated", "app_io"],
)
def test_trigger_clock_survives_a_pickle_round_trip(policy, base):
    """The trigger clock reads the store through a per-time-base reader: a
    pickled finished Simulation (how a run is forked) reads the same value,
    and from its own store."""
    sim = Simulation(policy=policy(), config=_config())
    sim.run(_churn_trace(100))
    assert sim._trigger.base is base
    clock = sim._clock()
    assert clock > 0
    copy = pickle.loads(pickle.dumps(sim))
    assert copy._clock() == clock
    _tick(copy.store, base)
    assert copy._clock() == clock + 1
    assert sim._clock() == clock
