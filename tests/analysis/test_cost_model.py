"""Validate the per-collection cost model exactly against the collector."""

import random
from functools import partial

import pytest

from repro.analysis.cost_model import predict_collection_cost
from repro.events import stream_events
from repro.gc.collector import CopyingCollector
from repro.oo7.builder import apply_event, build_database
from repro.oo7.config import TINY
from repro.oo7.schema import Oo7Graph
from repro.storage.heap import ObjectStore, StoreConfig
from repro.workload.phases import gen_db_steps, reorg1_steps

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


def _churned_store(seed=0):
    rng = random.Random(seed)
    graph = Oo7Graph(TINY, rng=rng)
    store = ObjectStore(TINY_STORE)
    for event in stream_events(partial(gen_db_steps, graph)):
        apply_event(store, event)
    for event in stream_events(partial(reorg1_steps, graph, rng, 0.5)):
        apply_event(store, event)
    return store


def test_prediction_matches_collector_exactly_fresh_db():
    store = build_database(TINY, store_config=TINY_STORE).store
    collector = CopyingCollector(store)
    for pid in range(store.partition_count):
        predicted = predict_collection_cost(store, pid)
        result = collector.collect(pid)
        assert predicted.reads == result.gc_reads, f"partition {pid} reads"
        assert predicted.writes == result.gc_writes, f"partition {pid} writes"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prediction_matches_collector_exactly_after_churn(seed):
    store = _churned_store(seed)
    collector = CopyingCollector(store)
    for pid in range(store.partition_count):
        predicted = predict_collection_cost(store, pid)
        result = collector.collect(pid)
        assert predicted.reads == result.gc_reads, f"partition {pid} reads"
        assert predicted.writes == result.gc_writes, f"partition {pid} writes"
        assert predicted.total == result.gc_io


def test_prediction_components_are_sane():
    store = _churned_store(0)
    breakdown = predict_collection_cost(store, 0)
    assert breakdown.partition_read_pages >= 1
    assert breakdown.survivor_write_pages >= 0
    assert breakdown.fixup_pages >= 0
    assert breakdown.dirty_writeback_pages >= 0
    assert breakdown.total == breakdown.reads + breakdown.writes


def test_cost_variation_is_modest_on_oo7():
    """The data behind SAIO's ΔGCIO ≈ CurrGCIO assumption: predicted costs
    across occupied partitions cluster within a small factor."""
    store = _churned_store(1)
    costs = [
        predict_collection_cost(store, pid).total
        for pid in range(store.partition_count)
        if store.partitions[pid].residents
    ]
    assert len(costs) >= 4
    # Ignore the manual's dedicated oversized partition if present.
    typical = sorted(costs)
    middle = typical[len(typical) // 4 : max(len(typical) // 4 + 1, 3 * len(typical) // 4)]
    assert max(middle) <= 3 * min(middle)
