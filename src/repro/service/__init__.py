"""Long-running service mode: the simulator as a production-posture process.

The paper evaluates its controllers on finite 67k-event traces; this
package runs the same engine as a long-lived service over *unbounded*
event streams — the ROADMAP's online posture. The pieces:

* :mod:`repro.service.config` — :class:`ServiceConfig`, the service knobs
  (pacing, checkpoint cadence, heap/log bounds, backpressure mode);
* :mod:`repro.service.stream` — replayable unbounded streams over the
  grammar/tenant streaming generators, served as bounded column chunks
  (``chunks_from(start_index)`` / ``events_from(start_index)`` are the
  unbounded analogue of ``CompiledTrace.replay``);
* :mod:`repro.service.backpressure` — admission control that keeps the
  modelled heap under a hard bound by forcing collections and, as a last
  resort, shedding incoming work (degradation counters in ``repro.obs``);
* :mod:`repro.service.server` — :class:`GcService`, the chunk loop over
  the column interpreters (fused kernels between the service's
  boundaries, guarded steps where admission control must look at an
  event): periodic WAL checkpoints + redo-log truncation, graceful drain
  on SIGTERM, telemetry heartbeats;
* :mod:`repro.service.soak` — crash-soak drills: kill the service at
  fault-plan-chosen points, recover from checkpoint + log suffix, resume
  the stream at the exact event index, and assert byte-identical
  committed state against an uncrashed reference.
"""

from repro.service.backpressure import AdmissionController, BackpressureStats
from repro.service.config import ServiceConfig
from repro.service.server import GcService, ServiceReport
from repro.service.soak import SoakReport, run_soak_drill
from repro.service.stream import (
    EventStream,
    ReplayableStream,
    finite_stream,
    grammar_stream,
    tenant_stream,
)

__all__ = sorted(
    [
        "AdmissionController",
        "BackpressureStats",
        "EventStream",
        "GcService",
        "ReplayableStream",
        "ServiceConfig",
        "ServiceReport",
        "SoakReport",
        "finite_stream",
        "grammar_stream",
        "run_soak_drill",
        "tenant_stream",
    ]
)
