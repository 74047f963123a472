"""Crash–recover–continue drills: the one crash → recover → resume loop.

A drill runs one setting twice over the same input:

1. a **reference** run with no faults, producing the committed logical
   state an unfailing system would reach;
2. a **drilled** run with a :class:`~repro.faults.plan.FaultPlan` attached
   and redo logging enabled. Every injected crash kills the simulated
   process; the drill then rebuilds the committed state from the redo log
   (:func:`repro.tx.recovery.recover_with_info`: the last checkpoint plus
   the log suffix), builds a fresh segment around the recovered store —
   rate-policy and selection state rebuilt from scratch, oracle garbage
   accounting replayed from the log's ``dies`` annotations — and resumes
   at the crash's ``resume_index`` (the begin of the transaction that was
   in flight, so the lost transaction is re-executed in full).

:class:`CrashRecoveryLoop` is that loop, with one :class:`RecoveryOutcome`
per crash and the drill's telemetry. Its callers only build segments:
:func:`run_crash_recovery_drill` replays a compiled trace through a
``Simulation``, :func:`repro.service.soak.run_soak_drill` serves a bounded
stream window through a ``GcService``.

The drill's acceptance check is byte-level: the canonical JSON rendering of
the committed reachable state (objects, sizes, kinds, pointer graphs,
roots) of the drilled run must be identical to the reference run's. That is
deliberately GC-invariant — a correct collector only ever removes
unreachable objects, so crash/recovery cycles that shift collection
schedules must not shift the reachable state.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.faults.injector import FaultInjector, SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.storage.heap import ObjectStore
from repro.tx.recovery import RedoLog, recover_with_info


def committed_state(store: ObjectStore) -> dict:
    """Canonical JSON-compatible rendering of the committed reachable state.

    Covers exactly what crash recovery guarantees: the objects reachable
    from the persistent roots, with their sizes, kinds and pointer slots,
    plus the root set itself. Unreachable objects are excluded because
    garbage collection may legitimately have removed them in one run and
    not the other.
    """
    reachable = store.reachable_from_roots()
    row = store.placements.row
    return {
        "roots": sorted(store.roots),
        "objects": {
            str(oid): {
                "size": obj.size,
                "kind": obj.kind.value,
                "pointers": {slot: target for slot, target in sorted(obj.pointers.items())},
            }
            for oid in sorted(reachable)
            for obj in (row(oid),)
        },
    }


def state_digest(store: ObjectStore) -> str:
    """SHA-256 of the canonical committed-state bytes (byte-identity check)."""
    blob = json.dumps(committed_state(store), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RecoveryOutcome:
    """What one crash → recover → resume cycle actually did."""

    #: Fault site that killed the process.
    site: str
    #: Absolute event index the crash interrupted.
    event_index: int
    #: Absolute event index the resumed segment restarted from.
    resume_index: int
    #: Objects rebuilt into the recovered store.
    recovered_objects: int
    #: True when recovery restored a checkpoint snapshot first.
    from_checkpoint: bool
    #: Event index the restored checkpoint covered (0 when none).
    checkpoint_event_index: int
    #: Redo records replayed after the checkpoint (the suffix).
    records_replayed: int
    #: Lifetime records the log had seen when this recovery ran — proves
    #: the replay was suffix-only whenever ``records_replayed`` is smaller.
    log_appended_total: int


@dataclass
class DrillReport:
    """Everything one crash–recover–continue drill established."""

    #: One outcome per injected crash survived, in order.
    recoveries: list[RecoveryOutcome] = field(default_factory=list)
    #: Digest of the uncrashed reference run's committed state.
    reference_digest: str = ""
    #: Digest of the drilled run's final committed state.
    final_digest: str = ""
    #: The drilled run's fault ledger (site, occurrence, effect) triples.
    fired: list[tuple] = field(default_factory=list)

    @property
    def crashes(self) -> int:
        """Number of injected crashes survived."""
        return len(self.recoveries)

    @property
    def matches_reference(self) -> bool:
        """True when the drilled run ended byte-identical to the reference."""
        return self.reference_digest == self.final_digest


class CrashRecoveryLoop:
    """The one crash → recover → resume loop, and the telemetry around it.

    One fault injector and one redo log serve every segment, so occurrence
    counters survive crashes and checkpoint history carries across
    segments. :meth:`run` calls ``segment(start_index, recovered_store)``
    — ``(0, None)`` first — until it returns without a crash. ``kind``
    (``"drill"`` or ``"soak"``) names the telemetry file kind, the
    ``<kind>_segment`` spans, the ``<kind>_complete`` event and the
    ``<kind>.*`` metrics. ``telemetry`` is a
    :class:`~repro.obs.telemetry.RunTelemetry`, a path for an owned file
    (``label``/``seed`` fill its ``meta``), or ``None``; its records buffer
    in this (real) process, so they survive the simulated crashes. Used as
    a context manager, the loop writes an owned file on exit — also when
    the drill aborts.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        kind: str = "drill",
        store_config=None,
        max_crashes: int = 16,
        telemetry=None,
        label: str = "",
        seed: int | None = None,
    ) -> None:
        from repro.obs.telemetry import RunTelemetry

        self.plan = plan
        self.kind = kind
        self.store_config = store_config
        self.max_crashes = max_crashes
        self.injector = FaultInjector(plan)
        self.log = RedoLog()
        self.recoveries: list[RecoveryOutcome] = []
        self._owns_obs = telemetry is not None and not isinstance(telemetry, RunTelemetry)
        if self._owns_obs:
            telemetry = RunTelemetry(telemetry, kind=kind, label=label, seed=seed)
        self.obs = telemetry

    def span(self, name: str, **attrs: object):
        """A telemetry span, or a no-op context when the loop is unobserved."""
        if self.obs is None:
            return contextlib.nullcontext()
        return self.obs.span(name, **attrs)

    def __enter__(self) -> CrashRecoveryLoop:
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._owns_obs:
            self.obs.close()

    @property
    def fired(self) -> list[tuple]:
        """The injector's fault ledger as (site, occurrence, effect)."""
        return [(f.site, f.occurrence, f.effect) for f in self.injector.fired]

    def run(self, segment):
        """Run ``segment`` until it completes; return its result. Raises
        RuntimeError when ``max_crashes`` is exceeded."""
        obs = self.obs
        start, store = 0, None
        while True:
            try:
                with self.span(f"{self.kind}_segment", start_index=start):
                    return segment(start, store)
            except SimulatedCrash as crash:
                if obs is not None:
                    obs.event(
                        "crash",
                        site=crash.site,
                        event_index=crash.event_index,
                        resume_index=crash.resume_index,
                    )
                if len(self.recoveries) >= self.max_crashes:
                    raise RuntimeError(
                        f"{self.kind} exceeded max_crashes={self.max_crashes}; "
                        f"plan {self.plan} appears to crash unboundedly"
                    ) from crash
                # The simulated process died: rebuild the committed state
                # from the log, drop the lost transaction's orphaned records
                # (it will be re-executed under the same txid), and resume.
                appended_before = self.log.appended_total
                store, info = recover_with_info(
                    self.log, store_config=self.store_config
                )
                self.log.truncate_uncommitted()
                start = crash.resume_index
                self.recoveries.append(
                    RecoveryOutcome(
                        site=crash.site,
                        event_index=crash.event_index,
                        resume_index=start,
                        recovered_objects=info.objects,
                        from_checkpoint=info.from_checkpoint,
                        checkpoint_event_index=info.checkpoint_event_index,
                        records_replayed=info.records_replayed,
                        log_appended_total=appended_before,
                    )
                )
                if obs is not None:
                    obs.event(
                        "recovered",
                        objects=info.objects,
                        from_checkpoint=info.from_checkpoint,
                        records_replayed=info.records_replayed,
                        resume_index=start,
                    )
                    obs.metrics.counter(f"{self.kind}.recoveries").inc()

    def complete(self, report: DrillReport, counts=None, **fields: object):
        """Record the ``<kind>_complete`` event and return ``report``: it
        carries ``crashes``, ``matches_reference``, ``counts`` and
        ``fields``, and ``crashes`` and each count is a ``<kind>.*`` gauge."""
        if self.obs is not None:
            counts = {"crashes": report.crashes, **(counts or {})}
            for name, value in counts.items():
                self.obs.metrics.gauge(f"{self.kind}.{name}").set(value)
            self.obs.event(
                f"{self.kind}_complete",
                matches_reference=report.matches_reference,
                **counts,
                **fields,
            )
        return report


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
        max_crashes: Safety valve against a plan that crashes forever.
        telemetry: A :class:`~repro.obs.telemetry.RunTelemetry` to record
            into, or a path to write a ``kind="drill"`` telemetry file to,
            or ``None`` (see :class:`CrashRecoveryLoop`). Telemetry never
            changes drill outcomes.

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
    config = dataclasses.replace(spec.sim, enable_redo_log=True)

    def simulation(**kwargs) -> Simulation:
        return Simulation(
            policy=build_policy(spec.policy, seed),
            selection=build_selection(spec.selection, seed),
            config=config,
            **kwargs,
        )

    with CrashRecoveryLoop(
        plan,
        kind="drill",
        store_config=config.store,
        max_crashes=max_crashes,
        telemetry=telemetry,
        label=spec.label or spec.policy.kind,
        seed=seed,
    ) as loop:
        # Compiled once: the reference run and every resumed segment
        # replay the same columns.
        trace = compile_trace(build_workload(spec.workload, seed))
        # Reference: same trace, same config (redo logging on, so costs
        # match), no faults. Unobserved — only the drilled run's GC timeline
        # is recorded, so the telemetry file describes one coherent run.
        reference = simulation()
        with loop.span("reference"):
            reference.run(trace)

        def segment(start: int, store: ObjectStore | None) -> Simulation:
            sim = simulation(
                store=store, faults=loop.injector, redo_log=loop.log, obs=loop.obs
            )
            sim.run(trace, start_index=start)
            return sim

        final = loop.run(segment)
        return loop.complete(
            DrillReport(
                recoveries=loop.recoveries,
                reference_digest=state_digest(reference.store),
                final_digest=state_digest(final.store),
                fired=loop.fired,
            )
        )
