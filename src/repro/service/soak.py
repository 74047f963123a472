"""Crash-soak drills: kill the service repeatedly, demand byte-identity.

A soak drill runs :class:`repro.faults.drill.CrashRecoveryLoop` — the one
crash → recover → resume loop the finite drill also runs — against the
*service* posture. This module only validates the service config and
builds segments: an unfailed **reference** service over a bounded stream
window, and per segment a fresh :class:`~repro.service.server.GcService`
(policies rebuilt from their specs) around the recovered store, serving
the rest of the window from ``crash.resume_index``.

Acceptance is byte-level and suffix-aware: the final committed reachable
state must hash identically to the reference's, and each recovery reports
whether it restored from a checkpoint and how many suffix records it
replayed — so tests can assert that post-checkpoint recovery did *not*
re-read the whole history (``RedoLog.appended_total`` keeps the lifetime
count for comparison).

Byte-identity requires ``backpressure="off"``: shed decisions depend on
collection timing, which crash/recovery legitimately shifts, so a drilled
run with admission control could diverge from its reference without any
bug. :func:`run_soak_drill` rejects such configs up front.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.faults.drill import CrashRecoveryLoop, DrillReport
from repro.faults.plan import FaultPlan
from repro.service.config import ServiceConfig
from repro.service.server import GcService, ServiceReport
from repro.service.stream import EventStream
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import PolicySpec, SelectionSpec, build_policy, build_selection


@dataclass
class SoakReport(DrillReport):
    """Everything one crash-soak drill established: the drill report plus
    the service-only fields."""

    #: Stream events in the soaked window.
    events_total: int = 0
    #: Checkpoints installed across all segments (shared-log lifetime).
    checkpoints: int = 0
    #: The final (uncrashed) segment's service report.
    final_segment: Optional[ServiceReport] = None
    #: The reference run's service report.
    reference: Optional[ServiceReport] = None

    @property
    def suffix_only(self) -> bool:
        """True when every post-checkpoint recovery replayed < lifetime log.

        Vacuously true when no recovery had a checkpoint to restore from
        (e.g. every crash landed before the first checkpoint cadence).
        """
        return all(
            r.records_replayed < r.log_appended_total
            for r in self.recoveries
            if r.from_checkpoint
        )


def soak_service(service: Optional[ServiceConfig]) -> ServiceConfig:
    """The service config a soak drills: ``service``, or a 100 000-event
    window. Raises ValueError when the window is unbounded or admission
    control is on (see the module docstring)."""
    svc = service or ServiceConfig(max_events=100_000)
    if svc.max_events is None:
        raise ValueError(
            "soak drills need a bounded window: set service.max_events"
        )
    if svc.backpressure != "off":
        raise ValueError(
            "soak drills compare byte-identical digests, which requires "
            'backpressure="off" (shed decisions depend on collection '
            "timing, which crash/recovery legitimately shifts)"
        )
    return svc


def run_soak_drill(
    stream: EventStream,
    policy: PolicySpec,
    seed: int = 0,
    selection: Optional[SelectionSpec] = None,
    sim_config: Optional[SimulationConfig] = None,
    service: Optional[ServiceConfig] = None,
    plan: Optional[FaultPlan] = None,
    max_crashes: int = 64,
    telemetry=None,
) -> SoakReport:
    """Run one crash-soak drill over a bounded stream window.

    Args:
        stream: The replayable event stream; both the reference and every
            resumed drilled segment regenerate from it, so it must be a
            pure function of its construction (all of
            :mod:`repro.service.stream`'s factories are).
        policy / selection: Specs, not instances — every segment rebuilds
            fresh policy state from scratch, exactly like the finite
            drill's recovery semantics.
        seed: Seed for policy/selection construction.
        sim_config: Base simulation config (redo log + WAL force-enabled
            by the service regardless).
        service: Service knobs. ``max_events`` is required (it bounds the
            soak window) and ``backpressure`` must be ``"off"`` (see the
            module docstring for why byte-identity demands it).
        plan: The failure schedule. Crash faults drive the soak.
        max_crashes: Safety valve against unbounded crash plans.
        telemetry: A RunTelemetry, or a path for a ``kind="soak"`` file,
            or None (see :class:`~repro.faults.drill.CrashRecoveryLoop`).

    Raises:
        ValueError: On a missing plan, unbounded window, or backpressure.
        RuntimeError: When ``max_crashes`` is exceeded.
    """
    if plan is None:
        raise ValueError("a crash-soak drill needs a FaultPlan (plan=)")
    svc = soak_service(service)
    config = sim_config or SimulationConfig()
    total = svc.max_events

    def serve(remaining: int, **kwargs) -> GcService:
        return GcService(
            policy=build_policy(policy, seed),
            stream=stream,
            selection=(
                build_selection(selection, seed)
                if selection is not None
                else None
            ),
            sim_config=config,
            service=dataclasses.replace(svc, max_events=remaining),
            **kwargs,
        )

    with CrashRecoveryLoop(
        plan,
        kind="soak",
        store_config=config.store,
        max_crashes=max_crashes,
        telemetry=telemetry,
        label=policy.kind,
        seed=seed,
    ) as loop:
        # Reference: same window, same config, no faults. Unobserved, so
        # the telemetry file describes the drilled service's one timeline.
        with loop.span("reference"):
            reference = serve(total).run()
        final = loop.run(
            lambda start, store: serve(
                total - start,
                store=store,
                redo_log=loop.log,
                faults=loop.injector,
                obs=loop.obs,
            ).run(start_index=start)
        )
        report = SoakReport(
            recoveries=loop.recoveries,
            reference_digest=reference.final_digest,
            final_digest=final.final_digest,
            fired=loop.fired,
            events_total=total,
            checkpoints=loop.log.checkpoints_installed,
            final_segment=final,
            reference=reference,
        )
        return loop.complete(
            report,
            {"checkpoints": report.checkpoints},
            suffix_only=report.suffix_only,
        )
