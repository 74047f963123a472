"""Tests for document replacement — §2.1's large-object-per-overwrite mode."""

import random
from functools import partial

import pytest

from repro.events import CreateEvent, PointerWriteEvent, stream_events, trace_stats
from repro.oo7.builder import apply_event
from repro.oo7.config import TINY
from repro.oo7.schema import Oo7Graph
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.object_model import ObjectKind
from repro.workload.phases import doc_churn_steps, gen_db_steps

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


def _generated(seed=0):
    rng = random.Random(seed)
    graph = Oo7Graph(TINY, rng=rng)
    store = ObjectStore(TINY_STORE)
    for event in stream_events(partial(gen_db_steps, graph)):
        apply_event(store, event)
    return graph, store, rng


def test_replace_document_events():
    graph, _store, _rng = _generated()
    composite = graph.composites[0]
    old_doc = composite.doc_oid
    events = graph.replace_document(composite)
    assert isinstance(events[0], CreateEvent)
    assert events[0].kind == ObjectKind.DOCUMENT
    assert isinstance(events[1], PointerWriteEvent)
    assert events[1].src == composite.oid
    assert events[1].slot == "doc"
    assert events[1].dies == (old_doc,)
    assert composite.doc_oid == events[0].oid != old_doc


def test_one_overwrite_kills_one_document():
    """The §2.1 claim in numbers: garbage per overwrite == DocumentSize."""
    graph, _store, rng = _generated()
    events = list(stream_events(partial(doc_churn_steps, graph, rng, 1.0, "DocChurn")))
    stats = trace_stats(events, sizes=graph.object_sizes)
    # trace_stats cannot see GenDB's slot state, but every doc write here
    # replaces a pre-existing doc pointer... which it also cannot see, so
    # count deaths per pointer write directly.
    writes = [e for e in events if isinstance(e, PointerWriteEvent)]
    assert all(len(e.dies) == 1 for e in writes)
    assert stats.bytes_died == len(writes) * TINY.document_size


def test_doc_churn_annotations_consistent_on_store():
    graph, store, rng = _generated()
    for event in stream_events(partial(doc_churn_steps, graph, rng, 0.5, "DocChurn")):
        apply_event(store, event)
    assert store.check_death_annotations() == set()
    count = max(1, int(len(graph.composites) * 0.5))
    assert store.actual_garbage_bytes == count * TINY.document_size


def test_doc_churn_fraction_validation():
    graph, _store, rng = _generated()
    with pytest.raises(ValueError):
        list(stream_events(partial(doc_churn_steps, graph, rng, 0.0, "DocChurn")))
    with pytest.raises(ValueError):
        list(stream_events(partial(doc_churn_steps, graph, rng, 1.5, "DocChurn")))


def test_doc_churn_overwrites_advance_clock_on_store():
    graph, store, rng = _generated()
    before = store.pointer_overwrites
    events = list(stream_events(partial(doc_churn_steps, graph, rng, 1.0, "DocChurn")))
    for event in events:
        apply_event(store, event)
    writes = sum(1 for e in events if isinstance(e, PointerWriteEvent))
    assert store.pointer_overwrites == before + writes


def test_mixed_churn_is_bimodal():
    """Part deletion (~500 B over 4 overwrites) vs doc replacement
    (DocumentSize per overwrite): the two garbage modes differ by ~4x on
    TINY and far more on the paper's config."""
    graph, store, rng = _generated()
    composite = graph.composites[0]

    graph.replace_document(composite)
    doc_gpo = TINY.document_size / 1  # one overwrite

    part = composite.deletable_parts()[0]
    part_events = graph.delete_part(part)
    part_deaths = sum(
        graph.object_sizes[oid]
        for e in part_events
        if isinstance(e, PointerWriteEvent)
        for oid in e.dies
    )
    part_writes = sum(1 for e in part_events if isinstance(e, PointerWriteEvent))
    part_gpo = part_deaths / part_writes

    assert doc_gpo > 2.5 * part_gpo
