"""Unit tests for the OO7 logical graph: generation and mutation."""

import random

import pytest

from repro.events import CreateEvent, PointerWriteEvent, RootEvent
from repro.oo7.builder import apply_event
from repro.oo7.config import TINY
from repro.oo7.schema import Oo7Graph
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.object_model import ObjectKind


@pytest.fixture
def graph() -> Oo7Graph:
    graph = Oo7Graph(TINY, rng=random.Random(42))
    list(graph.generate())  # materialise
    return graph


def _kind_counts(events):
    counts = {}
    for event in events:
        if isinstance(event, CreateEvent):
            counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


def test_generation_object_counts_match_config():
    graph = Oo7Graph(TINY, rng=random.Random(0))
    events = list(graph.generate())
    counts = _kind_counts(events)
    assert counts[ObjectKind.MODULE] == 1
    assert counts[ObjectKind.MANUAL] == 1
    assert counts[ObjectKind.ASSEMBLY] == TINY.assemblies_per_module
    assert counts[ObjectKind.COMPOSITE_PART] == TINY.num_comp_per_module
    assert counts[ObjectKind.DOCUMENT] == TINY.num_comp_per_module
    assert counts[ObjectKind.ATOMIC_PART] == TINY.atomic_parts_per_module
    assert counts[ObjectKind.CONNECTION] == TINY.connections_per_module
    assert sum(counts.values()) == TINY.expected_object_count


def test_generation_roots_exactly_the_module():
    graph = Oo7Graph(TINY, rng=random.Random(0))
    events = list(graph.generate())
    roots = [e for e in events if isinstance(e, RootEvent)]
    assert len(roots) == 1
    assert roots[0].oid == graph.module_oid


def test_every_composite_has_a_base_assembly_reference(graph):
    referenced = {
        composite.oid
        for base in graph.base_assemblies()
        for composite in base.composites
    }
    assert referenced == {c.oid for c in graph.composites}


def test_base_assemblies_have_configured_composite_fanout(graph):
    for base in graph.base_assemblies():
        assert len(base.composites) == TINY.num_comp_per_assm


def test_each_part_has_configured_out_connections(graph):
    for composite in graph.composites:
        for part in composite.alive_parts():
            assert len(part.alive_out_conns()) == TINY.num_conn_per_atomic


def test_connections_stay_within_composite_and_avoid_self_loops(graph):
    for composite in graph.composites:
        part_oids = {p.oid for p in composite.alive_parts()}
        for part in composite.alive_parts():
            for conn in part.alive_out_conns():
                assert conn.dst.oid in part_oids
                assert conn.dst is not part


def test_in_and_out_connection_views_are_consistent(graph):
    for composite in graph.composites:
        for part in composite.alive_parts():
            for conn in part.alive_out_conns():
                assert conn in conn.dst.in_conns
            for conn in part.alive_in_conns():
                assert conn in conn.src.out_conns


def test_average_part_in_degree_is_connectivity_plus_one(graph):
    """Each part: 1 composite reference + NumConnPerAtomic in-connections on
    average — the paper's "connectivity of four" at NumConn 3."""
    parts = graph.alive_atomic_parts()
    total_in = sum(1 + len(p.alive_in_conns()) for p in parts)
    assert total_in / len(parts) == pytest.approx(TINY.num_conn_per_atomic + 1)


def test_generation_is_deterministic_for_equal_seeds():
    a = list(Oo7Graph(TINY, rng=random.Random(5)).generate())
    b = list(Oo7Graph(TINY, rng=random.Random(5)).generate())
    assert a == b


def test_generation_varies_with_seed():
    a = list(Oo7Graph(TINY, rng=random.Random(1)).generate())
    b = list(Oo7Graph(TINY, rng=random.Random(2)).generate())
    assert a != b


# ----------------------------------------------------------------------
# delete_part
# ----------------------------------------------------------------------


def test_delete_part_emits_disconnections_and_deaths(graph):
    composite = graph.composites[0]
    part = composite.deletable_parts()[0]
    in_conns = part.alive_in_conns()
    out_conns = part.alive_out_conns()
    events = graph.delete_part(part)

    # One retargeting overwrite per incoming connection + the composite clear.
    assert all(isinstance(e, PointerWriteEvent) for e in events)
    assert len(events) == len(in_conns) + 1

    # Each incoming connection is retargeted (no death), not destroyed.
    for event, conn in zip(events[:-1], in_conns):
        assert event.src == conn.oid
        assert event.slot == "to"
        assert event.target is not None
        assert event.dies == ()

    # The composite clear kills the part and its outgoing connections.
    final = events[-1]
    assert final.src == composite.oid
    assert final.target is None
    assert final.dies[0] == part.oid
    assert set(final.dies[1:]) == {c.oid for c in out_conns}


def test_delete_part_retargets_neighbour_connections(graph):
    """Incoming connections survive, pointing at another alive part, so the
    neighbours' out-degree is preserved and no extra objects are created."""
    composite = graph.composites[0]
    part = composite.deletable_parts()[0]
    in_conns = part.alive_in_conns()
    sources = [c.src for c in in_conns]
    degrees_before = [len(s.alive_out_conns()) for s in sources]
    events = graph.delete_part(part)

    degrees_after = [len(s.alive_out_conns()) for s in sources]
    assert degrees_after == degrees_before
    assert not any(isinstance(e, CreateEvent) for e in events)
    for conn in in_conns:
        assert not conn.dead
        assert conn.dst is not part
        assert not conn.dst.dead
        assert conn in conn.dst.in_conns


def test_connection_population_is_stationary_under_churn(graph):
    """Delete + reinsert leaves the connection count unchanged."""
    before = graph.alive_connection_count()
    composite = graph.composites[0]
    victims = composite.deletable_parts()[:2]
    for part in victims:
        graph.delete_part(part)
    for _ in victims:
        graph.insert_part(composite)
    assert graph.alive_connection_count() == before


def test_delete_part_updates_graph_state(graph):
    composite = graph.composites[0]
    before = len(composite.alive_parts())
    part = composite.deletable_parts()[0]
    graph.delete_part(part)
    assert part.dead
    assert len(composite.alive_parts()) == before - 1
    assert part.slot in composite.free_part_slots


def test_delete_part_rejects_root_part(graph):
    with pytest.raises(ValueError, match="root part"):
        graph.delete_part(graph.composites[0].root_part)


def test_delete_part_rejects_double_delete(graph):
    part = graph.composites[0].deletable_parts()[0]
    graph.delete_part(part)
    with pytest.raises(ValueError, match="already dead"):
        graph.delete_part(part)


def test_deleting_neighbour_first_shrinks_out_death_set(graph):
    """Connections killed by a neighbour's deletion must not die twice."""
    composite = graph.composites[0]
    part = composite.deletable_parts()[0]
    neighbours = {c.dst for c in part.alive_out_conns() if not c.dst.is_root_part}
    victim_neighbour = next(iter(neighbours), None)
    if victim_neighbour is None:
        pytest.skip("part only connects to the root part in this draw")
    graph.delete_part(victim_neighbour)
    events = graph.delete_part(part)
    all_deaths = [
        oid
        for e in events
        if isinstance(e, PointerWriteEvent)
        for oid in e.dies
    ]
    assert len(all_deaths) == len(set(all_deaths))
    assert victim_neighbour.oid not in all_deaths


# ----------------------------------------------------------------------
# insert_part
# ----------------------------------------------------------------------


def test_insert_part_reuses_freed_slot(graph):
    composite = graph.composites[0]
    part = composite.deletable_parts()[0]
    freed_slot = part.slot
    graph.delete_part(part)
    new_part, _events = graph.insert_part(composite)
    assert new_part.slot == freed_slot


def test_insert_part_creates_part_and_connections(graph):
    composite = graph.composites[0]
    new_part, events = graph.insert_part(composite)
    creates = [e for e in events if isinstance(e, CreateEvent)]
    assert creates[0].kind == ObjectKind.ATOMIC_PART
    assert len(creates) == 1 + TINY.num_conn_per_atomic
    assert len(new_part.alive_out_conns()) == TINY.num_conn_per_atomic
    assert not new_part.dead
    assert new_part in composite.alive_parts()


def test_insert_part_targets_are_preexisting_alive_parts(graph):
    composite = graph.composites[0]
    before = set(composite.alive_parts())
    new_part, _events = graph.insert_part(composite)
    for conn in new_part.alive_out_conns():
        assert conn.dst in before


# ----------------------------------------------------------------------
# Degenerate composite: churned down to its root part, then repaired
# ----------------------------------------------------------------------


def _reachable_connections(store: ObjectStore) -> int:
    return sum(
        1
        for oid in store.reachable_from_roots()
        if store.objects[oid].kind == ObjectKind.CONNECTION
    )


def test_composite_churned_to_its_root_is_repaired_by_insertion():
    graph = Oo7Graph(TINY, rng=random.Random(7))
    store = ObjectStore(StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4))
    for event in graph.generate():
        apply_event(store, event)
    composite = graph.composites[0]
    root = composite.root_part

    victims = composite.deletable_parts()
    for part in victims[:-1]:
        for event in graph.delete_part(part):
            apply_event(store, event)
    # Two parts left: every connection of the root targets the last victim.
    last = victims[-1]
    root_conns = last.alive_in_conns()
    assert len(root_conns) == TINY.num_conn_per_atomic
    assert all(conn.src is root for conn in root_conns)

    events = graph.delete_part(last)
    for event in events:
        apply_event(store, event)
    # Nothing to retarget to: the root's connections die with their target.
    assert events[:-1] == [
        PointerWriteEvent(root.oid, conn.slot, None, dies=(conn.oid,))
        for conn in root_conns
    ]
    assert all(conn.dead for conn in root_conns)
    assert composite.alive_parts() == [root]
    assert root.alive_out_conns() == [] and root.alive_in_conns() == []
    assert graph.alive_connection_count() == _reachable_connections(store)
    assert store.check_death_annotations() == set()

    new_part, events = graph.insert_part(composite)
    for event in events:
        apply_event(store, event)
    # The insertion wires the new part and repairs the root's deficit.
    assert composite.alive_parts() == [root, new_part]
    for part in composite.alive_parts():
        assert len(part.alive_out_conns()) == TINY.num_conn_per_atomic
    assert {conn.dst for conn in root.alive_out_conns()} == {new_part}
    assert graph.alive_connection_count() == _reachable_connections(store)
    assert store.check_death_annotations() == set()

    # Repaired means repaired: a further insertion adds only its own wiring.
    _part, events = graph.insert_part(composite)
    creates = [e for e in events if isinstance(e, CreateEvent)]
    assert len(creates) == 1 + TINY.num_conn_per_atomic
