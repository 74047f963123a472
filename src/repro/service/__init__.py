"""Long-running service mode: the simulator as a production-posture process.

The paper evaluates its controllers on finite 67k-event traces; this
package runs the same engine as a long-lived service over *unbounded*
event streams — the ROADMAP's online posture. The pieces:

* :mod:`repro.service.config` — ``ServiceConfig``, the service knobs
  (pacing, checkpoint cadence, heap/log bounds, backpressure mode);
* :mod:`repro.service.stream` — replayable unbounded streams over the
  grammar/tenant streaming generators, served as bounded column chunks
  (``chunks_from(start_index)``, which resumes by regenerating where a
  finite run replays its compiled trace from ``start_index``);
* :mod:`repro.service.backpressure` — admission control that keeps the
  modelled heap under a hard bound by forcing collections and, as a last
  resort, shedding incoming work (degradation counters in ``repro.obs``);
* :mod:`repro.service.server` — ``GcService``, the chunk loop over
  the column interpreters (fused kernels between the service's
  boundaries, guarded steps where admission control must look at an
  event): periodic WAL checkpoints + redo-log truncation, graceful drain
  on SIGTERM, telemetry heartbeats;
* :mod:`repro.service.soak` — crash-soak drills: the service-side segment
  builder over :class:`repro.faults.drill.CrashRecoveryLoop`, the one
  crash → recover → resume loop the finite drill also runs. The loop kills
  the service at fault-plan-chosen points, recovers from checkpoint + log
  suffix and resumes the stream at the exact event index; the soak asserts
  byte-identical committed state against an uncrashed reference.
"""
