"""Tests for clustering analytics — the Reorg1/Reorg2 (de)clustering contract."""

import random
from functools import partial


from repro.events import stream_events
from repro.oo7.builder import apply_event
from repro.oo7.config import OO7Config
from repro.oo7.schema import Oo7Graph
from repro.sim.clustering import composite_spread, traverse_hit_rate
from repro.storage.heap import ObjectStore, StoreConfig
from repro.workload.phases import gen_db_steps, reorg1_steps, reorg2_steps

CONFIG = OO7Config(
    num_atomic_per_comp=12,
    num_comp_per_module=30,
    num_assm_levels=3,
    manual_size=8 * 1024,
    document_size=500,
)
STORE_CFG = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


def _fresh(seed=0):
    rng = random.Random(seed)
    graph = Oo7Graph(CONFIG, rng=rng)
    store = ObjectStore(STORE_CFG)
    for event in stream_events(partial(gen_db_steps, graph)):
        apply_event(store, event)
    return graph, store, rng


def test_fresh_database_is_clustered():
    graph, store, _rng = _fresh()
    stats = composite_spread(store, graph)
    assert stats.mean_partitions_per_composite < 2.5
    assert stats.clustered_fraction > 0.6


def test_reorg1_roughly_preserves_clustering():
    graph, store, rng = _fresh()
    before = composite_spread(store, graph)
    for event in stream_events(partial(reorg1_steps, graph, rng, 0.5)):
        apply_event(store, event)
    after = composite_spread(store, graph)
    # Clustered reinsertion: spread grows only mildly.
    assert after.mean_partitions_per_composite < before.mean_partitions_per_composite + 2.0


def test_reorg2_breaks_clustering():
    """The paper's design goal for Reorg2."""
    graph1, store1, rng1 = _fresh()
    for event in stream_events(partial(reorg1_steps, graph1, rng1, 0.5)):
        apply_event(store1, event)
    after_reorg1 = composite_spread(store1, graph1)

    graph2, store2, rng2 = _fresh()
    for event in stream_events(partial(reorg2_steps, graph2, rng2, 0.5)):
        apply_event(store2, event)
    after_reorg2 = composite_spread(store2, graph2)

    assert (
        after_reorg2.mean_partitions_per_composite
        > after_reorg1.mean_partitions_per_composite + 1.0
    )
    assert after_reorg2.clustered_fraction < after_reorg1.clustered_fraction


def test_declustering_costs_traversal_locality():
    """De-clustered placement shows up as a worse traversal hit rate —
    the mechanism behind Figure 1a's application-I/O growth."""
    graph1, store1, rng1 = _fresh()
    for event in stream_events(partial(reorg1_steps, graph1, rng1, 0.5)):
        apply_event(store1, event)
    clustered_rate = traverse_hit_rate(store1, graph1)

    graph2, store2, rng2 = _fresh()
    for event in stream_events(partial(reorg2_steps, graph2, rng2, 0.5)):
        apply_event(store2, event)
    declustered_rate = traverse_hit_rate(store2, graph2)

    assert declustered_rate < clustered_rate


def test_compaction_shrinks_traversal_footprint():
    """Collecting every partition after Reorg2 squeezes garbage out: the
    live working set occupies fewer distinct pages — the storage-side
    benefit of copying collection (§3.1). Cross-partition de-clustering
    itself is permanent (objects never migrate between partitions), which
    is exactly why Reorg2 is hostile."""
    from repro.gc.collector import CopyingCollector
    from repro.sim.clustering import traverse_page_footprint

    graph, store, rng = _fresh()
    for event in stream_events(partial(reorg2_steps, graph, rng, 0.5)):
        apply_event(store, event)
    before = traverse_page_footprint(store, graph)
    collector = CopyingCollector(store)
    for _round in range(2):
        for pid in range(store.partition_count):
            collector.collect(pid)
    after = traverse_page_footprint(store, graph)
    assert after < before


def test_spread_stats_empty_graph():
    graph = Oo7Graph(CONFIG, rng=random.Random(0))
    store = ObjectStore(STORE_CFG)
    stats = composite_spread(store, graph)
    assert stats.mean_partitions_per_composite == 0.0
    assert stats.max_partitions_per_composite == 0
