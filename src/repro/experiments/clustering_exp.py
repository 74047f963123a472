"""Ablation: measuring the (de)clustering behaviour behind the workload.

The paper chose this application precisely because its two reorganisations
recluster differently — Reorg1 preserves per-composite clustering, Reorg2
destroys it (§3.4) — which is what makes a fixed collection rate fail for
one or the other. This experiment measures the effect directly on the
stored database:

* composite spread (partitions per composite) after GenDB, after Reorg1,
  and after Reorg2;
* the read-only traversal's buffer hit rate and distinct-page footprint in
  each state;
* the same footprint after collecting every partition (compaction squeezes
  out the garbage the reorganisations left behind).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from repro.events import stream_events
from repro.experiments.common import DEFAULT_CONFIG, default_seeds
from repro.gc.collector import CopyingCollector
from repro.oo7.builder import apply_event
from repro.oo7.config import OO7Config
from repro.oo7.schema import Oo7Graph
from repro.sim.clustering import (
    composite_spread,
    traverse_hit_rate,
    traverse_page_footprint,
)
from repro.sim.report import format_table
from repro.storage.heap import ObjectStore, StoreConfig
from repro.workload.phases import gen_db_steps, reorg1_steps, reorg2_steps


@dataclass(frozen=True)
class ClusteringRow:
    state: str
    mean_spread: float
    clustered_fraction: float
    hit_rate: float
    footprint_pages: float


@dataclass
class ClusteringResult:
    rows: list[ClusteringRow]
    seeds: list[int]


def _measure(store: ObjectStore, graph: Oo7Graph, state: str) -> tuple:
    spread = composite_spread(store, graph)
    return (
        state,
        spread.mean_partitions_per_composite,
        spread.clustered_fraction,
        traverse_hit_rate(store, graph),
        float(traverse_page_footprint(store, graph)),
    )


def run_clustering_experiment(
    seeds=None, config: OO7Config = DEFAULT_CONFIG
) -> ClusteringResult:
    seeds = seeds if seeds is not None else default_seeds()
    states = ("after GenDB", "after Reorg1", "after Reorg2", "Reorg2 + full GC")
    sums = {state: [0.0, 0.0, 0.0, 0.0] for state in states}

    for seed in seeds:
        rng = random.Random(seed)
        graph = Oo7Graph(config, rng=rng)
        store = ObjectStore(StoreConfig())
        for event in stream_events(partial(gen_db_steps, graph)):
            apply_event(store, event)
        measurements = [_measure(store, graph, "after GenDB")]

        for event in stream_events(partial(reorg1_steps, graph, rng, 0.5)):
            apply_event(store, event)
        measurements.append(_measure(store, graph, "after Reorg1"))

        for event in stream_events(partial(reorg2_steps, graph, rng, 0.5)):
            apply_event(store, event)
        measurements.append(_measure(store, graph, "after Reorg2"))

        collector = CopyingCollector(store)
        for _round in range(2):
            for pid in range(store.partition_count):
                collector.collect(pid)
        measurements.append(_measure(store, graph, "Reorg2 + full GC"))

        for state, *values in measurements:
            for index, value in enumerate(values):
                sums[state][index] += value

    rows = [
        ClusteringRow(
            state=state,
            mean_spread=sums[state][0] / len(seeds),
            clustered_fraction=sums[state][1] / len(seeds),
            hit_rate=sums[state][2] / len(seeds),
            footprint_pages=sums[state][3] / len(seeds),
        )
        for state in states
    ]
    return ClusteringResult(rows=rows, seeds=list(seeds))


def format_clustering_experiment(result: ClusteringResult) -> str:
    table = format_table(
        [
            "database state",
            "partitions/composite",
            "clustered composites",
            "traversal hit rate",
            "traversal footprint (pages)",
        ],
        [
            [
                row.state,
                f"{row.mean_spread:.2f}",
                f"{row.clustered_fraction * 100:.0f}%",
                f"{row.hit_rate * 100:.1f}%",
                f"{row.footprint_pages:.0f}",
            ]
            for row in result.rows
        ],
        title="§3.4 ablation: reclustering behaviour of the reorganisations",
    )
    note = (
        "Reorg1 reinserts clustered (spread barely moves); Reorg2 scatters "
        "each composite over many partitions, costing traversal locality. "
        "Compaction recovers pages (footprint) but cannot un-scatter "
        "composites — objects never migrate between partitions."
    )
    return f"{table}\n\n{note}"
