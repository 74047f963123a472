"""Tests for the synthetic workload generator."""

import pytest

from stored import objects

from repro.events import (
    AccessEvent,
    IdleEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
    trace_stats,
)
from repro.oo7.builder import apply_steps
from repro.storage.heap import ObjectStore, StoreConfig
from repro.workload.synthetic import SyntheticPhase, SyntheticWorkload

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


def _phase(**kwargs) -> SyntheticPhase:
    defaults = dict(name="p", operations=50)
    defaults.update(kwargs)
    return SyntheticPhase(**defaults)


def test_phase_validation():
    with pytest.raises(ValueError):
        _phase(operations=-1)
    with pytest.raises(ValueError):
        _phase(create_weight=-1.0)
    with pytest.raises(ValueError):
        _phase(create_weight=0, delete_weight=0, trim_weight=0, access_weight=0, idle_weight=0)
    with pytest.raises(ValueError):
        _phase(cluster_size=0)
    with pytest.raises(ValueError):
        _phase(trim_fraction=1.0)
    with pytest.raises(ValueError):
        _phase(name="")


def test_workload_requires_phases():
    with pytest.raises(ValueError):
        SyntheticWorkload([])


def test_trace_is_deterministic_per_seed():
    phases = [_phase(operations=30)]
    a = list(SyntheticWorkload(phases, seed=5).events())
    b = list(SyntheticWorkload(phases, seed=5).events())
    assert a == b
    c = list(SyntheticWorkload(phases, seed=6).events())
    assert a != c


def test_phase_markers_in_order():
    phases = [_phase(name="alpha", operations=5), _phase(name="beta", operations=5)]
    markers = [
        e.name
        for e in SyntheticWorkload(phases, seed=0).events()
        if isinstance(e, PhaseMarkerEvent)
    ]
    assert markers == ["alpha", "beta"]


def test_whole_cluster_death_single_overwrite():
    """Deleting a cluster is one overwrite killing cluster_size objects —
    §2.1's 'large connected structure detached by a single overwrite'."""
    phases = [
        _phase(
            operations=40,
            create_weight=0,
            delete_weight=1,
            access_weight=0,
            cluster_size=8,
        )
    ]
    workload = SyntheticWorkload(phases, seed=1, initial_clusters=10)
    deletions = [
        e
        for e in workload.events()
        if isinstance(e, PointerWriteEvent) and e.dies
    ]
    assert deletions
    assert all(len(e.dies) == 8 for e in deletions)


def test_garbage_per_overwrite_is_tunable():
    """cluster_size × object_size controls bytes per overwrite directly."""
    phases = [
        _phase(
            operations=60,
            create_weight=1,
            delete_weight=1,
            access_weight=0,
            cluster_size=4,
            object_size=100,
        )
    ]
    workload = SyntheticWorkload(phases, seed=2, initial_clusters=20)
    stats = trace_stats(workload.events(), sizes=workload.object_sizes)
    assert stats.garbage_per_overwrite == pytest.approx(400.0)


def test_trim_kills_suffix():
    phases = [
        _phase(
            operations=20,
            create_weight=0,
            delete_weight=0,
            trim_weight=1,
            access_weight=0,
            cluster_size=8,
            trim_fraction=0.5,
        )
    ]
    workload = SyntheticWorkload(phases, seed=3, initial_clusters=4)
    trims = [
        e
        for e in workload.events()
        if isinstance(e, PointerWriteEvent) and e.dies and e.src != workload.registry_oid
    ]
    assert trims
    assert all(1 <= len(e.dies) <= 7 for e in trims)


def test_idle_phase_emits_idle_events():
    phases = [
        _phase(
            operations=20,
            create_weight=0,
            delete_weight=0,
            access_weight=0,
            idle_weight=1,
        )
    ]
    events = list(SyntheticWorkload(phases, seed=0, initial_clusters=2).events())
    assert sum(1 for e in events if isinstance(e, IdleEvent)) == 20


def test_access_touches_whole_cluster():
    phases = [
        _phase(
            operations=1,
            create_weight=0,
            delete_weight=0,
            access_weight=1,
            cluster_size=5,
        )
    ]
    events = list(SyntheticWorkload(phases, seed=0, initial_clusters=1).events())
    accesses = [e for e in events if isinstance(e, AccessEvent)]
    assert len(accesses) == 5


def test_death_annotations_match_reachability_on_store():
    phases = [
        _phase(operations=200, create_weight=1, delete_weight=1, trim_weight=1, access_weight=1)
    ]
    workload = SyntheticWorkload(phases, seed=7, initial_clusters=8)
    store = ObjectStore(TINY_STORE)
    apply_steps(store, workload.steps)
    assert store.check_death_annotations() == set()


def test_creates_link_into_rooted_graph():
    phases = [_phase(operations=30, create_weight=1, delete_weight=0, access_weight=0)]
    workload = SyntheticWorkload(phases, seed=4, initial_clusters=0)
    store = ObjectStore(TINY_STORE)
    apply_steps(store, workload.steps)
    assert store.unlinked == set()
    assert store.reachable_from_roots() == set(objects(store))
