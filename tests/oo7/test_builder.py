"""Tests for OO7 database building: Table 1 verification on a real store."""

import random

import pytest

from stored import objects

from repro.events import stream_events
from repro.oo7.builder import build_database
from repro.oo7.config import SMALL_PRIME, TINY
from repro.oo7.schema import Oo7Graph
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.object_model import ObjectKind

from event_oracle import apply_to_store, store_fields

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


@pytest.fixture(scope="module")
def tiny_db():
    return build_database(TINY, store_config=TINY_STORE)


def test_built_db_object_count(tiny_db):
    assert len(tiny_db.store.placements) == TINY.expected_object_count


def test_built_db_byte_total(tiny_db):
    assert tiny_db.store.db_size == TINY.expected_bytes_per_module


def test_built_db_is_fully_reachable(tiny_db):
    """A freshly generated database contains no garbage at all."""
    store = tiny_db.store
    assert store.reachable_from_roots() == set(objects(store))
    assert store.actual_garbage_bytes == 0
    assert store.check_death_annotations() == set()


def test_built_db_has_no_lingering_unlinked_pins(tiny_db):
    """Every created object ends up referenced (or rooted)."""
    assert tiny_db.store.unlinked == set()


def test_kind_counts(tiny_db):
    counts = tiny_db.kind_counts()
    assert counts[ObjectKind.ATOMIC_PART] == TINY.atomic_parts_per_module
    assert counts[ObjectKind.CONNECTION] == TINY.connections_per_module
    assert counts[ObjectKind.COMPOSITE_PART] == TINY.num_comp_per_module


def test_atomic_part_in_degree_matches_paper_connectivity(tiny_db):
    """§2.1: "average connectivity of four (i.e., each object has four
    pointers pointing to it)" — composite ref + NumConnPerAtomic in-conns."""
    assert tiny_db.atomic_part_in_degree() == pytest.approx(
        TINY.num_conn_per_atomic + 1
    )


def test_database_spans_multiple_partitions(tiny_db):
    assert tiny_db.store.partition_count > 3


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "config, store_config",
    [(TINY, TINY_STORE), (SMALL_PRIME, StoreConfig())],
    ids=["tiny", "small-prime"],
)
def test_built_db_equals_the_event_by_event_build(config, store_config, seed):
    """GenDB replayed through the simulator leaves the store that applying
    its events one by one leaves, field for field."""
    db = build_database(config, store_config=store_config, seed=seed)
    graph = Oo7Graph(config, rng=random.Random(seed))
    store = ObjectStore(store_config)
    for event in stream_events(graph.generate_steps):
        apply_to_store(store, event)
    assert store_fields(db.store) == store_fields(store)
    assert db.graph.object_sizes == graph.object_sizes


@pytest.mark.slow
def test_small_prime_scale():
    """The paper's Small' database: 12,666 objects, ~1.5 MB of objects."""
    db = build_database(SMALL_PRIME)
    assert len(db.store.placements) == SMALL_PRIME.expected_object_count == 12666
    assert db.store.db_size == SMALL_PRIME.expected_bytes_per_module
    assert db.store.actual_garbage_bytes == 0
    assert db.atomic_part_in_degree() == pytest.approx(4.0)
