"""Clustering-quality analytics.

The paper's workload is built around *reclustering behaviour*: Reorg1
reinserts atomic parts clustered by composite, Reorg2 deliberately scatters
them ("break any clustering of atomic parts for a given composite part"),
and the copying collector compacts live objects to win back locality. This
module measures those effects directly:

* :func:`composite_spread` — across how many partitions a composite's parts
  are scattered (1.0 = perfectly clustered);
* :func:`traverse_hit_rate` — buffer hit rate of a read-only depth-first
  traversal, the I/O-visible consequence of (de)clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.events import AccessEvent, stream_events
from repro.oo7.schema import Oo7Graph
from repro.storage.buffer import BufferPool
from repro.storage.heap import ObjectStore
from repro.storage.iostats import IOCategory, IOStats
from repro.workload.phases import traverse_steps


@dataclass(frozen=True)
class SpreadStats:
    """Partition-spread statistics over all composites."""

    mean_partitions_per_composite: float
    max_partitions_per_composite: int
    clustered_fraction: float
    """Fraction of composites whose parts sit in at most 2 partitions."""


def composite_spread(store: ObjectStore, graph: Oo7Graph) -> SpreadStats:
    """Measure how widely each composite's alive parts are scattered.

    A freshly generated database places each composite's parts contiguously,
    so most composites span one partition (two when straddling a boundary).
    De-clustered reinsertion drives the spread up.
    """
    spreads = []
    for composite in graph.composites:
        partitions = {
            store.partition_of(part.oid) for part in composite.alive_parts()
        }
        spreads.append(len(partitions))
    if not spreads:
        return SpreadStats(0.0, 0, 0.0)
    clustered = sum(1 for s in spreads if s <= 2)
    return SpreadStats(
        mean_partitions_per_composite=sum(spreads) / len(spreads),
        max_partitions_per_composite=max(spreads),
        clustered_fraction=clustered / len(spreads),
    )


def traverse_hit_rate(store: ObjectStore, graph: Oo7Graph) -> float:
    """Buffer hit rate of one full read-only traversal over the database.

    Runs the Traverse phase's access pattern against a *scratch* buffer pool
    with the store's configured capacity, so the measurement neither
    perturbs the store's real buffer nor depends on what it happened to
    cache. Returns hits / accesses.
    """
    scratch_stats = IOStats()
    scratch = BufferPool(store.config.buffer_pages, scratch_stats)
    for event in stream_events(partial(traverse_steps, graph)):
        if not isinstance(event, AccessEvent):
            continue
        for page in store.pages_of(event.oid):
            scratch.touch(page, IOCategory.APPLICATION)
    return scratch.stats.hit_rate


def traverse_page_footprint(store: ObjectStore, graph: Oo7Graph) -> int:
    """Distinct pages one full traversal touches.

    Compaction's storage-side benefit: squeezing garbage out packs the live
    working set onto fewer pages, shrinking the traversal footprint even
    though objects never migrate between partitions.
    """
    pages: set = set()
    for event in stream_events(partial(traverse_steps, graph)):
        if isinstance(event, AccessEvent):
            pages.update(store.pages_of(event.oid))
    return len(pages)
