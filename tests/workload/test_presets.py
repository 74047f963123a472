"""Tests for the canned synthetic workload presets."""

import pytest

from repro.core.fixed import AllocationRatePolicy, FixedRatePolicy
from repro.events import IdleEvent, PhaseMarkerEvent
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage.heap import StoreConfig
from repro.workload.synthetic import SyntheticWorkload

from presets import (
    PRESETS,
    bulk_load_then_serve,
    daily_cycle,
    garbage_burst,
    make_preset,
    steady_churn,
)

STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_generate_valid_workloads(name):
    phases = make_preset(name, scale=0.2).phases
    workload = SyntheticWorkload(phases, seed=0, initial_clusters=20)
    events = list(workload.events())
    markers = [e.name for e in events if isinstance(e, PhaseMarkerEvent)]
    assert markers == [p.name for p in phases]
    assert len(events) > len(phases)


def test_make_preset_rejects_unknown():
    with pytest.raises(ValueError, match="unknown preset"):
        make_preset("nope")


def test_scale_multiplies_operations():
    small = steady_churn(scale=0.5)
    big = steady_churn(scale=2.0)
    assert big[0].operations == 4 * small[0].operations


def test_daily_cycle_day_count():
    phases = daily_cycle(days=2)
    assert [p.name for p in phases] == ["day-0", "night-0", "day-1", "night-1"]
    with pytest.raises(ValueError):
        daily_cycle(days=0)


def test_daily_cycle_nights_are_quiet():
    phases = daily_cycle(scale=0.3)
    workload = SyntheticWorkload(phases, seed=1, initial_clusters=10)
    idle_by_phase = {}
    phase = None
    for event in workload.events():
        if isinstance(event, PhaseMarkerEvent):
            phase = event.name
        elif isinstance(event, IdleEvent):
            idle_by_phase[phase] = idle_by_phase.get(phase, 0) + 1
    assert any(name.startswith("night") for name in idle_by_phase)
    assert not any(name.startswith("day") for name in idle_by_phase)


def test_garbage_burst_raises_death_rate_in_burst():
    """The burst phase creates garbage much faster per event than the calm
    phases (deletions dominate its operation mix)."""
    from repro.events import PointerWriteEvent

    phases = garbage_burst(scale=0.5)
    workload = SyntheticWorkload(phases, seed=2, initial_clusters=30)
    deaths = dict.fromkeys(("calm-1", "burst", "calm-2"), 0)
    events = dict.fromkeys(("calm-1", "burst", "calm-2"), 0)
    phase = None
    for event in workload.events():
        if isinstance(event, PhaseMarkerEvent):
            phase = event.name
            continue
        if phase in events:
            events[phase] += 1
            if isinstance(event, PointerWriteEvent):
                deaths[phase] += len(event.dies)
    burst_rate = deaths["burst"] / events["burst"]
    calm_rate = deaths["calm-1"] / events["calm-1"]
    assert burst_rate > 2 * calm_rate


def test_bulk_load_decorrelates_allocation_and_garbage():
    """On the bulk-load preset, the allocation clock fires during the load
    (reclaiming nothing) while the overwrite clock stays quiet until the
    serve phase creates garbage."""
    phases = bulk_load_then_serve(scale=0.4)

    def run(policy):
        workload = SyntheticWorkload(phases, seed=3, initial_clusters=0)
        sim = Simulation(
            policy=policy,
            config=SimulationConfig(store=STORE, preamble_collections=0),
        )
        return sim.run(workload.events())

    allocation = run(AllocationRatePolicy(24 * 1024))
    overwrite = run(FixedRatePolicy(60))

    def load_phase_collections(result):
        return sum(1 for r in result.collections if r.phase == "bulk-load")

    assert load_phase_collections(allocation) > 0
    assert load_phase_collections(overwrite) == 0
