"""Tests for the four application phases: behaviour and clustering contracts."""

import random
from functools import partial

import pytest

from repro.events import (
    AccessEvent,
    CreateEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
    stream_events,
    trace_stats,
)
from repro.oo7.builder import apply_steps
from repro.oo7.config import TINY
from repro.oo7.schema import Oo7Graph
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.object_model import ObjectKind
from repro.workload.phases import (
    PHASE_REORG1,
    PHASE_REORG2,
    PHASE_TRAVERSE,
    gen_db_steps,
    reorg1_steps,
    reorg2_steps,
    traverse_steps,
)

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


def _generated_graph(seed=0):
    rng = random.Random(seed)
    graph = Oo7Graph(TINY, rng=rng)
    gen_events = list(stream_events(partial(gen_db_steps, graph)))
    return graph, rng, gen_events


# ----------------------------------------------------------------------
# Reorg1
# ----------------------------------------------------------------------


def test_reorg1_preserves_part_population():
    graph, rng, _gen = _generated_graph()
    before = len(graph.alive_atomic_parts())
    list(stream_events(partial(reorg1_steps, graph, rng, 0.5)))
    assert len(graph.alive_atomic_parts()) == before
    assert graph.alive_connection_count() == TINY.connections_per_module


def test_reorg1_deletes_and_reinserts_half():
    graph, rng, _gen = _generated_graph()
    original = {p.oid for p in graph.alive_atomic_parts()}
    list(stream_events(partial(reorg1_steps, graph, rng, 0.5)))
    surviving = {p.oid for p in graph.alive_atomic_parts()}
    replaced = len(original - surviving)
    deletable_half = TINY.num_comp_per_module * int((TINY.num_atomic_per_comp - 1) * 0.5)
    assert replaced == deletable_half


def test_reorg1_emits_overwrites_and_deaths():
    graph, rng, gen_events = _generated_graph()
    events = list(stream_events(partial(reorg1_steps, graph, rng, 0.5)))
    # Overwrite classification needs the pointer state GenDB established, so
    # measure over the concatenated trace (GenDB itself contributes neither
    # overwrites nor deaths).
    stats = trace_stats(gen_events + events, sizes=graph.object_sizes)
    assert stats.pointer_overwrites > 0
    assert stats.deaths > 0
    # Garbage per overwrite should be in the paper's ballpark (~150 B at conn 3).
    assert 80 <= stats.garbage_per_overwrite <= 400


def test_reorg1_clusters_reinsertions_per_composite():
    """Reorg1 creates each composite's replacement parts consecutively."""
    graph, rng, _gen = _generated_graph()
    events = list(stream_events(partial(reorg1_steps, graph, rng, 0.5)))
    part_creates = [
        e for e in events if isinstance(e, CreateEvent) and e.kind == ObjectKind.ATOMIC_PART
    ]
    composites_in_order = []
    oid_to_composite = {
        p.oid: p.composite.oid for p in graph.alive_atomic_parts()
    }
    for event in part_creates:
        composite = oid_to_composite.get(event.oid)
        if composite is not None and (
            not composites_in_order or composites_in_order[-1] != composite
        ):
            composites_in_order.append(composite)
    # Clustered: each composite appears exactly once as a contiguous block.
    assert len(composites_in_order) == len(set(composites_in_order))


# ----------------------------------------------------------------------
# Traverse
# ----------------------------------------------------------------------


def test_traverse_is_read_only():
    graph, rng, _gen = _generated_graph()
    events = list(stream_events(partial(traverse_steps, graph)))
    assert not any(isinstance(e, (PointerWriteEvent, CreateEvent)) for e in events)


def test_traverse_visits_every_alive_part_once():
    graph, rng, _gen = _generated_graph()
    events = list(stream_events(partial(traverse_steps, graph)))
    part_oids = {p.oid for p in graph.alive_atomic_parts()}
    accessed = [e.oid for e in events if isinstance(e, AccessEvent)]
    part_accesses = [oid for oid in accessed if oid in part_oids]
    assert sorted(part_accesses) == sorted(part_oids)
    assert len(part_accesses) == len(set(part_accesses))


def test_traverse_visits_assemblies_and_composites():
    graph, rng, _gen = _generated_graph()
    accessed = {
        e.oid for e in stream_events(partial(traverse_steps, graph)) if isinstance(e, AccessEvent)
    }
    assert graph.module_oid in accessed
    assert all(a.oid in accessed for a in graph.assemblies)
    assert all(c.oid in accessed for c in graph.composites)


# ----------------------------------------------------------------------
# Reorg2
# ----------------------------------------------------------------------


def test_reorg2_preserves_part_population():
    graph, rng, _gen = _generated_graph()
    before = len(graph.alive_atomic_parts())
    list(stream_events(partial(reorg2_steps, graph, rng, 0.5)))
    assert len(graph.alive_atomic_parts()) == before


def test_reorg2_interleaves_reinsertions_across_composites():
    """Reorg2 breaks clustering: consecutive new parts belong to different
    composites (round-robin)."""
    graph, rng, _gen = _generated_graph()
    events = list(stream_events(partial(reorg2_steps, graph, rng, 0.5)))
    oid_to_composite = {p.oid: p.composite.oid for p in graph.alive_atomic_parts()}
    sequence = [
        oid_to_composite[e.oid]
        for e in events
        if isinstance(e, CreateEvent)
        and e.kind == ObjectKind.ATOMIC_PART
        and e.oid in oid_to_composite
    ]
    adjacent_same = sum(1 for a, b in zip(sequence, sequence[1:]) if a == b)
    # Round-robin: essentially no two consecutive parts share a composite.
    assert adjacent_same <= len(sequence) * 0.05


def test_phase_markers_present():
    graph, rng, _gen = _generated_graph()
    for phase_fn, name in [
        (lambda: stream_events(partial(reorg1_steps, graph, rng, 0.5)), PHASE_REORG1),
        (lambda: stream_events(partial(traverse_steps, graph)), PHASE_TRAVERSE),
        (lambda: stream_events(partial(reorg2_steps, graph, rng, 0.5)), PHASE_REORG2),
    ]:
        events = list(phase_fn())
        assert isinstance(events[0], PhaseMarkerEvent)
        assert events[0].name == name


# ----------------------------------------------------------------------
# Death-annotation fidelity against a real store
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_death_annotations_match_reachability_at_phase_boundaries(seed):
    rng = random.Random(seed)
    graph = Oo7Graph(TINY, rng=rng)
    store = ObjectStore(TINY_STORE)
    for steps in (
        partial(gen_db_steps, graph),
        partial(reorg1_steps, graph, rng, 0.5),
        partial(traverse_steps, graph),
        partial(reorg2_steps, graph, rng, 0.5),
    ):
        apply_steps(store, steps)
        assert store.check_death_annotations() == set()
        assert store.garbage.undeclared == 0
