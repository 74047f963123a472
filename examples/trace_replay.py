"""Record a workload trace to a file, inspect it, and replay it.

The original system was trace-driven from files [CWZ93]; this example shows
the equivalent workflow: generate the OO7 application trace once, save it
in the compiled trace format (versioned and checksummed), and replay the
same file under two different policies — the runs see byte-identical event
streams, so any difference is purely the policy's doing.

Run with::

    python examples/trace_replay.py
"""

import itertools
import tempfile
from pathlib import Path

from repro import (
    Oo7Application,
    OracleEstimator,
    SagaPolicy,
    SaioPolicy,
    Simulation,
    SimulationConfig,
    TINY,
)
from repro.sim.report import format_table
from repro.workload import CompiledTrace, compile_trace


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "oo7-tiny.trace"

        # 1. Record once.
        compiled = compile_trace(Oo7Application(TINY, seed=123))
        compiled.save(trace_path)
        size_kb = trace_path.stat().st_size / 1024
        print(f"recorded {len(compiled):,} events to {trace_path.name} ({size_kb:.0f} KB)")

        # 2. Peek at the head of the file — iterating a loaded trace decodes
        #    the same event objects the generator produced.
        for event in itertools.islice(CompiledTrace.load(trace_path), 4):
            print(f"  {event}")

        # 3. Replay the identical trace under different policies.
        from repro.storage.heap import StoreConfig

        store_cfg = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)
        rows = []
        for label, policy in (
            ("SAIO @ 15% I/O", SaioPolicy(io_fraction=0.15, initial_interval=50)),
            (
                "SAGA @ 15% garbage",
                SagaPolicy(
                    garbage_fraction=0.15,
                    estimator=OracleEstimator(),
                    initial_interval=30,
                ),
            ),
        ):
            simulation = Simulation(
                policy=policy,
                config=SimulationConfig(store=store_cfg, preamble_collections=2),
            )
            summary = simulation.run(CompiledTrace.load(trace_path)).summary
            rows.append(
                [
                    label,
                    summary.events,
                    summary.collections,
                    f"{summary.gc_io_fraction:.1%}",
                    f"{summary.garbage_fraction_mean:.1%}",
                ]
            )

        print()
        print(
            format_table(
                ["policy", "events replayed", "collections", "GC I/O share", "mean garbage"],
                rows,
                title="Two policies replaying one recorded trace",
            )
        )
        print(
            "\nBoth rows replayed the exact same file; the differing columns"
            "\nare the policies' choices, nothing else."
        )


if __name__ == "__main__":
    main()
