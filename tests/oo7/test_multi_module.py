"""Tests for multi-module OO7 databases (NumModules > 1, Table 1)."""

import random
from functools import partial


from repro.core.fixed import FixedRatePolicy
from repro.oo7.builder import build_database
from repro.oo7.config import TINY, OO7Config
from repro.oo7.schema import Oo7Graph
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage.heap import StoreConfig
from repro.workload.application import Oo7Application

MULTI = OO7Config(
    num_atomic_per_comp=5,
    num_comp_per_module=6,
    num_assm_levels=2,
    num_modules=3,
    manual_size=2048,
    document_size=300,
)
STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


def test_generation_creates_every_module():
    graph = Oo7Graph(MULTI, rng=random.Random(0))
    list(graph.generate())
    assert len(graph.modules) == 3
    assert len(graph.composites) == 3 * MULTI.num_comp_per_module
    assert len(graph.assemblies) == 3 * MULTI.assemblies_per_module
    # Each module owns its share.
    for module in graph.modules:
        assert len(module.composites) == MULTI.num_comp_per_module
        assert len(module.assemblies) == MULTI.assemblies_per_module
        assert module.root_assembly is not None


def test_each_module_is_a_root():
    db = build_database(MULTI, store_config=STORE)
    assert len(db.store.roots) == 3
    assert db.store.roots == {m.oid for m in db.graph.modules}


def test_multi_module_database_fully_reachable():
    db = build_database(MULTI, store_config=STORE)
    assert db.store.reachable_from_roots() == set(db.store.objects)
    assert len(db.store.objects) == MULTI.expected_object_count
    assert db.store.db_size == MULTI.num_modules * MULTI.expected_bytes_per_module


def test_expected_counts_scale_with_modules():
    from dataclasses import replace

    single = replace(MULTI, num_modules=1)
    assert MULTI.expected_object_count == 3 * single.expected_object_count


def test_composites_wired_within_their_module():
    graph = Oo7Graph(MULTI, rng=random.Random(1))
    list(graph.generate())
    for module in graph.modules:
        own = set(map(id, module.composites))
        for base in module.base_assemblies():
            for composite in base.composites:
                assert id(composite) in own


def test_full_application_over_multi_module_database():
    app = Oo7Application(MULTI, seed=2)
    sim = Simulation(
        policy=FixedRatePolicy(25),
        config=SimulationConfig(store=STORE, preamble_collections=0),
    )
    result = sim.run(app.events())
    store = result.store
    assert result.summary.collections > 0
    assert store.check_death_annotations() == set()
    assert store.garbage.undeclared == 0


def test_traverse_visits_all_modules():
    from repro.events import AccessEvent, stream_events
    from repro.workload.phases import gen_db_steps, traverse_steps

    graph = Oo7Graph(MULTI, rng=random.Random(3))
    list(stream_events(partial(gen_db_steps, graph)))
    traversal = stream_events(partial(traverse_steps, graph))
    accessed = {e.oid for e in traversal if isinstance(e, AccessEvent)}
    for module in graph.modules:
        assert module.oid in accessed
    part_oids = {p.oid for p in graph.alive_atomic_parts()}
    assert part_oids <= accessed


def test_single_module_accessors_still_work():
    graph = Oo7Graph(TINY, rng=random.Random(0))
    list(graph.generate())
    assert graph.module_oid == graph.modules[0].oid
    assert graph.manual_oid == graph.modules[0].manual_oid
    assert graph.root_assembly is graph.modules[0].root_assembly


def test_empty_graph_accessors():
    graph = Oo7Graph(TINY, rng=random.Random(0))
    assert graph.module_oid is None
    assert graph.manual_oid is None
    assert graph.root_assembly is None
