"""Quickstart: run the OO7 application under an adaptive collection-rate policy.

This is the five-minute tour: generate the paper's Small' OO7 database,
drive it through the four-phase test application (GenDB → Reorg1 →
Traverse → Reorg2), and let the SAIO policy hold garbage-collection I/O at
10% of all I/O operations.

Run with::

    python examples/quickstart.py
"""

from repro import Oo7Application, SaioPolicy, Simulation, SimulationConfig, SMALL_PRIME


def main() -> None:
    # The paper's test database (Table 1, column Small') and application.
    application = Oo7Application(SMALL_PRIME, seed=42)

    # Ask the ODBMS to spend ~10% of its I/O operations on collection; the
    # policy adapts the collection rate to the application's behaviour.
    policy = SaioPolicy(io_fraction=0.10)

    simulation = Simulation(
        policy=policy,
        config=SimulationConfig(preamble_collections=2),
    )
    result = simulation.run(application)
    summary = result.summary

    print(f"policy:                {policy.describe()}")
    print(f"database events:       {summary.events:,}")
    print(f"pointer overwrites:    {summary.pointer_overwrites:,}")
    print(f"collections performed: {summary.collections}")
    print(f"application I/O:       {summary.app_io_total:,} operations")
    print(f"collector I/O:         {summary.gc_io_total:,} operations")
    print(f"requested GC I/O:      10.00%")
    print(f"achieved GC I/O:       {summary.gc_io_fraction:.2%}")
    print(f"garbage reclaimed:     {summary.total_reclaimed_bytes / 1024:.0f} KB")
    print(f"final database size:   {summary.final_db_size / 1e6:.2f} MB "
          f"in {summary.final_partitions} partitions")

    achieved = summary.gc_io_fraction
    assert abs(achieved - 0.10) < 0.03, "SAIO should land close to its target"
    print("\nSAIO hit its target — see examples/compare_policies.py for more.")


if __name__ == "__main__":
    main()
