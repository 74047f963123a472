"""Deterministic fault injection: failure as a first-class, replayable input.

The paper's simulator "never crashes mid-run" (§3.2); a production ODBMS
cannot make that assumption. This package makes failure an *input* to every
layer of the reproduction instead of an accident:

* :class:`~repro.faults.plan.FaultPlan` /
  :class:`~repro.faults.plan.FaultSpec` — a declarative, JSON-serialisable
  schedule of faults (crashes, I/O errors, torn page writes) pinned to
  named sites in the storage, transaction and simulation layers;
* :class:`~repro.faults.injector.FaultInjector` — the runtime that fires
  those faults deterministically: the complete firing sequence is a pure
  function of ``(plan, plan.seed)``, so any failing run can be replayed
  exactly;
* :class:`~repro.faults.drill.CrashRecoveryLoop` — the one crash →
  recover → resume loop: recover the committed state from the redo log and
  resume from the crash point.
  :func:`~repro.faults.drill.run_crash_recovery_drill` (a finite trace) and
  :func:`repro.service.soak.run_soak_drill` (a stream window) build its
  segments and compare the final committed state byte-for-byte against an
  uncrashed reference run.
"""
