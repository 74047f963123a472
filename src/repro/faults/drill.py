"""Crash–recover–continue drills.

A drill runs one experimental setting twice over the same trace:

1. a **reference** run with no faults, producing the committed logical
   state an unfailing system would reach;
2. a **drilled** run with a :class:`~repro.faults.plan.FaultPlan` attached
   and redo logging enabled. Every injected crash kills the simulated
   process; the drill then rebuilds the committed state from the redo log
   (:func:`repro.tx.recovery.recover`), constructs a fresh simulation
   around the recovered store — rate-policy and selection state rebuilt
   from scratch, oracle garbage accounting replayed from the log's ``dies``
   annotations — and resumes the trace from the crash's ``resume_index``
   (the begin of the transaction that was in flight, so the lost
   transaction is re-executed in full).

The drill's acceptance check is byte-level: the canonical JSON rendering of
the committed reachable state (objects, sizes, kinds, pointer graphs,
roots) of the drilled run must be identical to the reference run's. That is
deliberately GC-invariant — a correct collector only ever removes
unreachable objects, so crash/recovery cycles that shift collection
schedules must not shift the reachable state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.faults.injector import FaultInjector, SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.storage.heap import ObjectStore
from repro.tx.recovery import RedoLog, recover


def committed_state(store: ObjectStore) -> dict:
    """Canonical JSON-compatible rendering of the committed reachable state.

    Covers exactly what crash recovery guarantees: the objects reachable
    from the persistent roots, with their sizes, kinds and pointer slots,
    plus the root set itself. Unreachable objects are excluded because
    garbage collection may legitimately have removed them in one run and
    not the other.
    """
    reachable = store.reachable_from_roots()
    return {
        "roots": sorted(store.roots),
        "objects": {
            str(oid): {
                "size": store.objects[oid].size,
                "kind": store.objects[oid].kind.value,
                "pointers": {
                    slot: target
                    for slot, target in sorted(store.objects[oid].pointers.items())
                },
            }
            for oid in sorted(reachable)
        },
    }


def state_digest(store: ObjectStore) -> str:
    """SHA-256 of the canonical committed-state bytes (byte-identity check)."""
    blob = json.dumps(committed_state(store), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class DrillReport:
    """Everything one crash–recover–continue drill established."""

    #: Number of injected crashes survived.
    crashes: int
    #: Site of each crash, in order.
    crash_sites: list[str] = field(default_factory=list)
    #: Absolute trace index each resumption restarted from.
    resume_indices: list[int] = field(default_factory=list)
    #: Objects recovered from the redo log at each crash.
    recovered_objects: list[int] = field(default_factory=list)
    #: Digest of the uncrashed reference run's committed state.
    reference_digest: str = ""
    #: Digest of the drilled run's final committed state.
    final_digest: str = ""
    #: The drilled run's fault ledger (site, occurrence, effect) triples.
    fired: list[tuple] = field(default_factory=list)

    @property
    def matches_reference(self) -> bool:
        """True when the drilled run ended byte-identical to the reference."""
        return self.reference_digest == self.final_digest


def run_crash_recovery_drill(
    spec,
    seed: int,
    plan: FaultPlan | None = None,
    max_crashes: int = 16,
    telemetry=None,
) -> DrillReport:
    """Run one crash–recover–continue drill and report the outcome.

    Args:
        spec: An :class:`~repro.sim.spec.ExperimentSpec`; its workload,
            policy and selection are resolved per run exactly as the
            experiment engine would.
        seed: The run seed (workload generation and seeded selection).
        plan: The failure schedule; defaults to ``spec.faults``. Crash
            faults drive the drill; ``torn-write`` faults may ride along
            (logical redo recovery is immune to torn data pages — the
            report's digests prove it).
        max_crashes: Safety valve against a plan that crashes forever
            (e.g. ``repeat=True`` with a tiny period).
        telemetry: A :class:`~repro.obs.telemetry.RunTelemetry` to record
            into, or a path to write a ``kind="drill"`` telemetry file to,
            or ``None``. One telemetry object observes the whole drill —
            its records buffer in this (real) process, so they survive the
            simulated crashes. A path given here is written even though the
            drilled simulation "crashes" mid-run; telemetry never changes
            drill outcomes.

    Raises:
        ValueError: When no plan is given at all.
        RuntimeError: When ``max_crashes`` is exceeded.
    """
    # Local imports: this module is reachable from repro.faults, which the
    # simulation layer imports — importing repro.sim at module scope would
    # close the cycle.
    from repro.sim.simulator import Simulation
    from repro.sim.spec import build_policy, build_selection, build_workload
    from repro.workload.compiled import compile_trace

    plan = plan if plan is not None else spec.faults
    if plan is None:
        raise ValueError("a crash-recovery drill needs a FaultPlan (spec.faults or plan=)")

    obs = None
    owns_obs = False
    if telemetry is not None:
        from repro.obs.telemetry import RunTelemetry

        if isinstance(telemetry, RunTelemetry):
            obs = telemetry
        else:
            obs = RunTelemetry(
                telemetry,
                kind="drill",
                label=spec.label or spec.policy.kind,
                seed=seed,
            )
            owns_obs = True

    config = dataclasses.replace(spec.sim, enable_redo_log=True)
    # Compiled once: the reference run and every resumed segment replay
    # the same columns.
    trace = compile_trace(build_workload(spec.workload, seed))

    def fresh(store=None, faults=None, redo_log=None, observed=False) -> Simulation:
        return Simulation(
            policy=build_policy(spec.policy, seed),
            selection=build_selection(spec.selection, seed),
            config=config,
            faults=faults,
            store=store,
            redo_log=redo_log,
            obs=obs if observed else None,
        )

    # Reference: same trace, same config (redo logging on, so costs match),
    # no faults. Unobserved — only the drilled run's GC timeline is
    # recorded, so the telemetry file describes one coherent run.
    reference = fresh()
    if obs is not None:
        with obs.span("reference"):
            reference.run(trace)
    else:
        reference.run(trace)
    report = DrillReport(crashes=0, reference_digest=state_digest(reference.store))

    # Drilled run: one injector for the whole drill, so occurrence counters
    # survive crashes and single-shot faults fire exactly once.
    injector = FaultInjector(plan)
    log = RedoLog()
    sim = fresh(faults=injector, redo_log=log, observed=True)
    start = 0
    while True:
        try:
            if obs is not None:
                with obs.span("drill_segment", start_index=start):
                    sim.run(trace, start_index=start)
            else:
                sim.run(trace, start_index=start)
            break
        except SimulatedCrash as crash:
            report.crashes += 1
            report.crash_sites.append(crash.site)
            if obs is not None:
                obs.event(
                    "crash",
                    site=crash.site,
                    event_index=crash.event_index,
                    resume_index=crash.resume_index,
                )
            if report.crashes > max_crashes:
                raise RuntimeError(
                    f"drill exceeded max_crashes={max_crashes}; plan {plan} "
                    "appears to crash unboundedly"
                ) from crash
            # The simulated process died: rebuild the committed state from
            # the redo log, drop the lost transaction's orphaned records
            # (it will be re-executed under the same txid), and resume.
            recovered = recover(log, store_config=config.store)
            log.truncate_uncommitted()
            report.recovered_objects.append(len(recovered.objects))
            start = crash.resume_index
            report.resume_indices.append(start)
            if obs is not None:
                obs.event(
                    "recovered",
                    objects=len(recovered.objects),
                    resume_index=start,
                )
                obs.metrics.counter("drill.recoveries").inc()
            sim = fresh(store=recovered, faults=injector, redo_log=log, observed=True)

    report.final_digest = state_digest(sim.store)
    report.fired = [(f.site, f.occurrence, f.effect) for f in injector.fired]
    if obs is not None:
        obs.metrics.gauge("drill.crashes").set(report.crashes)
        obs.event(
            "drill_complete",
            crashes=report.crashes,
            matches_reference=report.matches_reference,
        )
        if owns_obs:
            obs.close()
    return report
