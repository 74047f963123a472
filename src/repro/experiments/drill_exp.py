"""Crash-recovery drill: the fault-injection subsystem's acceptance demo.

Runs the crash–recover–continue harness (:func:`repro.faults.
run_crash_recovery_drill`) over the transactional churn workload: a
deterministic :class:`~repro.faults.plan.FaultPlan` crashes the simulated
store at transaction commits, transaction begins and mid-collection; each
crash is recovered from the redo log and the trace resumed from the crash
point; and the final committed state must be **byte-identical** (SHA-256
of the canonical reachable-state rendering) to an uncrashed reference run.

The report prints, per seed, every crash survived (site, resume index,
objects recovered) and the digest comparison — a reproducible, end-to-end
demonstration that recovery is correct under the injected failure
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import default_seeds, sim_config
from repro.faults.drill import DrillReport, run_crash_recovery_drill
from repro.faults.plan import FaultPlan, FaultSpec
from repro.sim.report import format_table
from repro.sim.spec import ExperimentSpec, PolicySpec, WorkloadSpec

#: The default drill schedule: crashes at all three crash-site layers plus
#: a torn page write riding along (logical redo recovery must be immune).
DEFAULT_PLAN = FaultPlan(
    faults=(
        FaultSpec(site="tx.commit", at=40, effect="crash"),
        FaultSpec(site="tx.begin", at=55, effect="crash"),
        FaultSpec(site="tx.commit", at=90, effect="crash"),
        FaultSpec(site="gc.collect", at=2, effect="crash"),
        FaultSpec(site="page.write", at=10, effect="torn-write"),
    ),
    seed=0,
)


def drill_spec() -> ExperimentSpec:
    """The drilled setting: fixed-rate policy over transactional churn."""
    return ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": 60}),
        workload=WorkloadSpec("transactional", {}),
        sim=sim_config(0),
        label="crash-recovery drill",
    )


@dataclass
class DrillResult:
    reports: dict[int, DrillReport]
    plan: FaultPlan
    seeds: list[int]

    @property
    def all_match(self) -> bool:
        return all(r.matches_reference for r in self.reports.values())


def run_drill(
    seeds=None, plan: FaultPlan | None = None, telemetry=None
) -> DrillResult:
    """Run the drill over ``seeds``; ``telemetry`` names a directory for
    one ``kind="drill"`` JSON-lines telemetry file per seed."""
    seeds = list(seeds) if seeds is not None else default_seeds()
    plan = plan if plan is not None else DEFAULT_PLAN
    spec = drill_spec()
    reports = {}
    for index, seed in enumerate(seeds):
        tel_path = None
        if telemetry is not None:
            from repro.obs.telemetry import run_telemetry_path

            tel_path = run_telemetry_path(telemetry, index, "drill", seed)
        reports[seed] = run_crash_recovery_drill(
            spec, seed, plan=plan, telemetry=tel_path
        )
    return DrillResult(reports=reports, plan=plan, seeds=seeds)


def format_drill(result: DrillResult) -> str:
    rows = []
    for seed, report in result.reports.items():
        rows.append(
            [
                str(seed),
                str(report.crashes),
                ", ".join(r.site for r in report.recoveries) or "-",
                ", ".join(str(r.resume_index) for r in report.recoveries) or "-",
                ", ".join(str(r.recovered_objects) for r in report.recoveries) or "-",
                "IDENTICAL" if report.matches_reference else "DIVERGED",
            ]
        )
    table = format_table(
        ["seed", "crashes", "crash sites", "resumed at", "recovered", "state vs reference"],
        rows,
        title="Crash-recovery drill: injected crashes vs committed state",
    )
    sites = ", ".join(
        f"{f.site}@{f.at}" if f.at is not None else f"{f.site}~p={f.probability}"
        for f in result.plan.faults
    )
    verdict = (
        "All drilled runs recovered to a committed state byte-identical to "
        "the uncrashed reference."
        if result.all_match
        else "DIVERGENCE DETECTED: at least one drilled run did not recover "
        "to the reference state."
    )
    note = f"(plan: {sites}; plan seed {result.plan.seed})"
    return "\n".join([table, note, verdict])
