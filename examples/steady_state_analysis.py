"""Predict the simulator with pencil and paper (the analysis module).

The repository ships closed-form steady-state models of the policies'
behaviour (``repro.analysis``). This example derives the workload constants
from one trace, predicts a fixed-rate run's yield, garbage level, and
collection count — plus the exact I/O cost of the next collection — and
checks the predictions against actual simulations.

Run with::

    python examples/steady_state_analysis.py
"""

from repro import FixedRatePolicy, Oo7Application, Simulation, SimulationConfig, SMALL_PRIME
from repro.analysis import (
    WorkloadModel,
    expected_collections,
    fixed_rate_garbage_fraction,
    fixed_rate_yield,
    predict_collection_cost,
)
from repro.events import trace_stats
from repro.sim.report import format_table

RATE = 200  # overwrites per collection


def main() -> None:
    # 1. Characterise the workload from one pass over the trace.
    stats = trace_stats(Oo7Application(SMALL_PRIME, seed=5).events())
    print(
        f"workload constants: {stats.pointer_overwrites:,} overwrites, "
        f"{stats.garbage_per_overwrite:.0f} B of garbage per overwrite"
    )

    # 2. Run the actual simulation at a fixed rate.
    simulation = Simulation(
        policy=FixedRatePolicy(RATE),
        config=SimulationConfig(preamble_collections=5),
    )
    result = simulation.run(Oo7Application(SMALL_PRIME, seed=5))
    summary = result.summary
    records = result.collections[5:]
    measured_yield = sum(r.reclaimed_bytes for r in records) / len(records)

    # 3. Predict the same quantities from the model.
    model = WorkloadModel(
        garbage_per_overwrite=stats.garbage_per_overwrite,
        db_size=summary.final_db_size,
        partitions=summary.final_partitions,
    )
    rows = [
        [
            "collections",
            f"{expected_collections(stats.pointer_overwrites, RATE):.0f}",
            f"{summary.collections}",
        ],
        [
            "yield per collection",
            f"{fixed_rate_yield(model, RATE) / 1024:.1f} KB",
            f"{measured_yield / 1024:.1f} KB",
        ],
        [
            "mean garbage fraction",
            f"{fixed_rate_garbage_fraction(model, RATE):.1%}",
            f"{summary.garbage_fraction_mean:.1%}",
        ],
    ]
    print()
    print(
        format_table(
            ["quantity", "model prediction", "simulation"],
            rows,
            title=f"Fixed rate {RATE} overwrites/collection: model vs simulator",
        )
    )

    # 4. The per-collection I/O cost model is exact, not approximate.
    store = result.store
    sample = [pid for pid in range(store.partition_count) if store.partitions[pid].residents][:5]
    cost_rows = []
    from repro.gc.collector import CopyingCollector

    collector = CopyingCollector(store)
    for pid in sample:
        predicted = predict_collection_cost(store, pid)
        actual = collector.collect(pid)
        cost_rows.append(
            [
                pid,
                predicted.reads,
                actual.gc_reads,
                predicted.writes,
                actual.gc_writes,
                "exact" if (predicted.reads, predicted.writes) == (actual.gc_reads, actual.gc_writes) else "OFF",
            ]
        )
    print()
    print(
        format_table(
            ["partition", "pred reads", "actual reads", "pred writes", "actual writes", "match"],
            cost_rows,
            title="Per-collection I/O cost model (predict, then collect)",
        )
    )
    print(
        "\nThe cost model's exactness is the data behind SAIO's central"
        "\nassumption (successive collections cost about the same I/O)."
    )


if __name__ == "__main__":
    main()
