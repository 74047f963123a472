"""Deterministic fault injection: failure as a first-class, replayable input.

The paper's simulator "never crashes mid-run" (§3.2); a production ODBMS
cannot make that assumption. This package makes failure an *input* to every
layer of the reproduction instead of an accident:

* :class:`FaultPlan` / :class:`FaultSpec` — a declarative, JSON-serialisable
  schedule of faults (crashes, I/O errors, torn page writes) pinned to
  named sites in the storage, transaction and simulation layers;
* :class:`FaultInjector` — the runtime that fires those faults
  deterministically: the complete firing sequence is a pure function of
  ``(plan, plan.seed)``, so any failing run can be replayed exactly;
* :class:`~repro.faults.drill.CrashRecoveryLoop` — the one crash →
  recover → resume loop: recover the committed state from the redo log and
  resume from the crash point. :func:`run_crash_recovery_drill` (a finite
  trace) and :func:`repro.service.soak.run_soak_drill` (a stream window)
  build its segments and compare the final committed state byte-for-byte
  against an uncrashed reference run.
"""

from repro.faults.injector import (
    FaultInjector,
    FiredFault,
    InjectedFaultError,
    InjectedIOError,
    SimulatedCrash,
)
from repro.faults.plan import (
    EFFECTS,
    SITES,
    FaultPlan,
    FaultSpec,
    load_fault_plan,
)

#: Drill symbols live in repro.faults.drill, which imports the simulation
#: layer (which in turn imports this package's plan/injector modules) — so
#: they are resolved lazily to keep the import graph acyclic.
_DRILL_EXPORTS = frozenset(
    {"DrillReport", "committed_state", "run_crash_recovery_drill", "state_digest"}
)


def __getattr__(name):
    if name in _DRILL_EXPORTS:
        from repro.faults import drill

        return getattr(drill, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DrillReport",
    "EFFECTS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "InjectedFaultError",
    "InjectedIOError",
    "SITES",
    "SimulatedCrash",
    "committed_state",
    "load_fault_plan",
    "run_crash_recovery_drill",
    "state_digest",
]
