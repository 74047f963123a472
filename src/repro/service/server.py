"""The long-running GC service: an unbounded-stream simulation process.

:class:`GcService` wraps one :class:`~repro.sim.simulator.Simulation` in a
service loop that adds what a long-lived process needs on top of trace
replay:

* **durability cadence** — periodic quiescent-point checkpoints
  (:func:`repro.tx.recovery.build_checkpoint`) written through the WAL
  and installed into the redo log, which truncates it: recovery after a
  crash replays only the suffix logged since the last checkpoint;
* **bounded memory** — admission control
  (:mod:`repro.service.backpressure`) that forces collections and sheds
  or delays incoming work before the modelled heap can exceed its bound;
* **graceful shutdown** — SIGTERM/SIGINT (or
  :meth:`GcService.request_shutdown`) drains the in-flight transaction,
  takes a final checkpoint, and returns a report (the request is read
  between runs of the fused kernels: at most one chunk of events late);
* **pacing** — optional wall-clock throttling to a target ops/sec;
* **observability** — checkpoint/shed/heartbeat events and
  ``service.*`` metrics through :mod:`repro.obs`.

Crash semantics are identical to finite drills: an injected
:class:`~repro.faults.injector.SimulatedCrash` propagates annotated with
``event_index``/``resume_index``, and a recovered service resumes the
stream at exactly that index (:mod:`repro.service.soak` drives the
cycle).
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.rate_policy import RatePolicy
from repro.faults.injector import SimulatedCrash
from repro.gc.selection import PartitionSelectionPolicy
from repro.service.backpressure import AdmissionController, BackpressureStats
from repro.service.config import ServiceConfig
from repro.service.stream import EventStream, stream_chunks
from repro.sim import batch
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage.heap import ObjectStore
from repro.tx.recovery import RedoLog, build_checkpoint
from repro.workload.compiled import (
    _OP_ABORT as _ABORT,
    _OP_COMMIT as _COMMIT,
    _OP_CREATE as _CREATE,
    _OP_PHASE as _PHASE,
    _OP_WRITE as _WRITE,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.telemetry import RunTelemetry


@dataclass
class ServiceReport:
    """Everything one service run (start → stop/crash boundary) produced."""

    #: Stream events consumed (applied + shed; phase markers included).
    events_seen: int = 0
    #: Events actually applied to the store.
    events_applied: int = 0
    #: Of those, events served by the fused kernels (the rest took guarded
    #: steps); a wall-clock matter like ``wall_s``, never a result.
    events_fused: int = 0
    #: Absolute stream index the next run should resume from.
    next_index: int = 0
    #: Checkpoints installed (including the final one).
    checkpoints: int = 0
    #: Collections performed over the run (forced ones included).
    collections: int = 0
    #: Why the loop stopped: end-of-stream / max-events / shutdown.
    stopped: str = ""
    #: SHA-256 of the committed reachable state at stop.
    final_digest: str = ""
    #: Peak modelled heap occupancy observed (bytes).
    heap_peak_bytes: int = 0
    #: Redo-log lifetime counters at stop.
    log_appended_total: int = 0
    log_truncated_total: int = 0
    #: Records currently after the last checkpoint.
    log_suffix_length: int = 0
    #: WAL statistics snapshot (``WalStats.as_metrics`` shape).
    wal: dict = field(default_factory=dict)
    #: Admission-control outcomes (zeroes when backpressure is off).
    backpressure: BackpressureStats = field(default_factory=BackpressureStats)
    #: Wall-clock seconds spent sleeping for pacing.
    paced_sleep_s: float = 0.0
    #: Wall-clock seconds spent waiting for the stream's next chunk (its
    #: generation, when the chunks are cut inline).
    stream_wait_s: float = 0.0
    #: Where the chunks were cut: ``"helper"`` or ``"inline"``.
    stream_host: str = "inline"
    #: Times a helper-fed stream went on inline (its helper died).
    stream_fallbacks: int = 0
    #: Wall-clock seconds the run took.
    wall_s: float = 0.0


class GcService:
    """A long-lived simulation process over an unbounded event stream.

    Args:
        policy: Collection-rate policy (fresh instance; rebuilt by the
            soak harness after each crash, like finite drills do).
        stream: The event source; must be replayable from any index.
        selection: Partition-selection policy (default as Simulation's).
        sim_config: Base simulation config; redo logging and the WAL are
            force-enabled (a service without durability could not
            recover).
        service: The :class:`ServiceConfig` knobs.
        faults: Fault plan or live injector (soak drills share one
            injector across crash cycles).
        obs: Optional telemetry (``kind="service"``).
        store / redo_log: Recovered state to resume onto, exactly like
            :class:`~repro.sim.simulator.Simulation`.
    """

    def __init__(
        self,
        policy: RatePolicy,
        stream: EventStream,
        selection: Optional[PartitionSelectionPolicy] = None,
        sim_config: Optional[SimulationConfig] = None,
        service: Optional[ServiceConfig] = None,
        faults=None,
        obs: Optional["RunTelemetry"] = None,
        store: Optional[ObjectStore] = None,
        redo_log: Optional[RedoLog] = None,
    ) -> None:
        self.service = service or ServiceConfig()
        base = sim_config or SimulationConfig()
        config = dataclasses.replace(
            base, enable_redo_log=True, enable_wal=True
        )
        self.sim = Simulation(
            policy=policy,
            selection=selection,
            config=config,
            faults=faults,
            store=store,
            redo_log=redo_log,
            obs=obs,
        )
        self.stream = stream
        self.obs = obs
        self.admission: Optional[AdmissionController] = None
        if (
            self.service.max_heap_bytes is not None
            and self.service.backpressure != "off"
        ):
            self.admission = AdmissionController(
                self.service.max_heap_bytes,
                self.service.backpressure,
                self._forced_collect,
            )
        self._shutdown_requested = False
        self._shed_oids: set = set()
        self._shed_txid: Optional[int] = None
        self._events_since_checkpoint = 0
        # Per-run state the interpreter's guard points share.
        self._report = ServiceReport()
        self._run_started = 0.0
        self._stopped = ""
        #: Column views of the chunk being served (what ``_admit`` reads).
        self._columns: Optional[batch._BatchCache] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the loop to drain and stop (signal-handler safe)."""
        self._shutdown_requested = True

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""

        def _handler(signum, frame):
            self.request_shutdown()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    # ------------------------------------------------------------------
    # The service loop
    # ------------------------------------------------------------------

    def run(self, start_index: int = 0) -> ServiceReport:
        """Consume the stream from ``start_index`` until a stop condition.

        Stop conditions: the stream ends, ``service.max_events`` stream
        events were consumed, or shutdown was requested — the latter
        drains the in-flight transaction first, so the stop point is
        quiescent and the final checkpoint covers everything applied.
        An injected crash propagates as
        :class:`~repro.faults.injector.SimulatedCrash` annotated with the
        resume index, like :meth:`Simulation.run`.

        The stream arrives as column chunks, and :meth:`_serve` takes each
        chunk through the interpreters of :mod:`repro.sim.batch`: the fused
        kernels wherever the run is eligible for them, with the service's
        rules as the run boundaries, and the guarded loop — :meth:`_admit`
        before an event, :meth:`_after_event` behind it — for everything
        else. Shutdown is read at every boundary, so on the fused route a
        request takes effect at most one chunk of events late.
        """
        sim = self.sim
        self._run_started = time.monotonic()
        self._report = report = ServiceReport(next_index=start_index)
        self._stopped = ""
        obs = self.obs
        if obs is not None:
            obs.event(
                "service_start",
                stream=self.stream.label,
                start_index=start_index,
                policy=sim.policy.describe(),
            )
        feed = stream_chunks(self.stream, start_index)
        clock = time.perf_counter
        try:
            # Closed however the run ends, so a helper is never left mid-feed.
            with contextlib.closing(feed):
                sim._start(start_index)
                while not self._stopped:
                    asked = clock()
                    item = next(feed, None)
                    report.stream_wait_s += clock() - asked
                    if item is None:
                        break
                    self._serve(*item)
        except SimulatedCrash as crash:
            sim._annotate_crash(crash)
            raise
        report.stream_host = feed.host
        report.stream_fallbacks = feed.fallbacks
        # Quiescent stop: flush a final checkpoint so a restart replays
        # nothing. (A malformed finite stream ending mid-transaction skips
        # it — checkpoints are only ever taken between transactions.)
        if not sim.tx.in_transaction and report.events_applied:
            self._checkpoint(report)
        report.stopped = self._stopped or "end-of-stream"
        report.next_index = start_index + report.events_seen
        report.wall_s = time.monotonic() - self._run_started
        self._finalise(report)
        return report

    # ------------------------------------------------------------------
    # Serving a chunk: fused runs between boundaries, guarded steps
    # ------------------------------------------------------------------

    def _serve(self, chunk, offset: int) -> None:
        """Apply ``chunk`` from event ``offset`` on, until it ends or the
        run stops.

        At each boundary the next stretch is either a *guarded step* —
        :func:`~repro.sim.batch._replay_guarded` up to the next quiescent
        event, with :meth:`_admit` and :meth:`_after_event` as its guard
        points — or a *fused run* to the nearest horizon. Guarded steps
        take what the kernels cannot: an open transaction, a create the
        heap bound refuses, a stream with something shed from it (every
        event must be looked at), and a trigger that is already due (a
        checkpoint's own I/O can do that; the guarded loop collects behind
        the next event even if it is a marker). Pacing and anything
        :func:`~repro.sim.batch._fast_eligible` refuses — a fault injector
        above all — keep the whole chunk guarded. Horizons are where a
        rule of :meth:`_at_boundary` could first fire: checkpoint cadence
        and ``max_events`` count events, so they are indices; a singleton
        logs at most three redo records, so ``max_log_records`` is one too.
        """
        sim = self.sim
        svc = self.service
        report = self._report
        self._columns = cache = batch._ensure_cache(chunk)
        ops = cache.ops
        end = len(ops)
        i = offset
        ci, wi = batch._prefix_counts(ops, offset)
        admit = bound = None
        if self.admission is not None:
            admit = self._admit
            bound = self.admission.max_heap_bytes
        after = self._after_event
        allocated = sim.store.config.db_size_mode == "allocated"
        fusable = None  # asked once per chunk, at its first quiescent boundary
        step = False    # the last fused run stopped at an event it cannot take
        while i < end and not self._stopped:
            if (
                step
                or sim.tx.in_transaction
                or self._shed_oids
                or self._shed_txid is not None
                or sim._clock() >= sim._due_at
            ):
                step = False
                i, ci, wi = batch._replay_guarded(
                    sim, chunk, cache, i, end, ci, wi, None, True, admit, after
                )
                continue
            if fusable is None:
                fusable = (
                    svc.target_ops_per_s is None
                    and sim.config.replay != "scalar"
                    and batch._fast_eligible(sim)
                )
            if not fusable:
                batch._replay_guarded(
                    sim, chunk, cache, i, end, ci, wi, None, False, admit, after
                )
                return
            ahead = svc.checkpoint_every_events - self._events_since_checkpoint
            if svc.max_events is not None:
                ahead = min(ahead, svc.max_events - report.events_seen)
            if svc.max_log_records is not None:
                room = svc.max_log_records - sim.redo_log.suffix_length
                ahead = min(ahead, room // 3)
            start = i
            i, ci, wi, stop = batch._run_fused(
                sim, chunk, cache, i, min(end, i + max(ahead, 1)), ci, wi, None, bound
            )
            served = i - start
            report.events_seen += served
            report.events_applied += served
            report.events_fused += served
            self._events_since_checkpoint += served
            if stop == batch._FIRED:
                # Occupancy is read behind the collections an event fires
                # (_after_event reads it there), so what the firing event
                # itself allocated is not seen before they ran. Only the
                # allocated measure can tell: physical size never shrinks.
                occupancy = sim.store.db_size
                if ops[i - 1] == _CREATE and allocated:
                    occupancy -= cache.arg1[i - 1]
                if occupancy > report.heap_peak_bytes:
                    report.heap_peak_bytes = occupancy
                while sim._clock() >= sim._due_at:
                    sim._collect()
            else:
                step = stop != batch._END
            self._at_boundary(True)

    def _at_boundary(self, quiescent: bool) -> bool:
        """The service's rules between two events — the one place they
        live, whichever interpreter served the event before. True (and
        ``_stopped`` set) ends the run here."""
        report = self._report
        svc = self.service
        # A fused run neither collects nor aborts, so occupancy only grew
        # since the boundary before it: reading it here misses no peak.
        occupancy = self.sim.store.db_size
        if occupancy > report.heap_peak_bytes:
            report.heap_peak_bytes = occupancy
        if quiescent:
            if (
                self._events_since_checkpoint >= svc.checkpoint_every_events
                or self._log_backlogged()
            ):
                self._checkpoint(report)
            if self._shutdown_requested:
                self._stopped = "shutdown"
                return True
        # max_events is an exact window boundary, honoured even
        # mid-transaction: soak drills rely on every segment consuming
        # precisely the same absolute stream window as the reference,
        # whatever index a segment started from. (Graceful shutdown, by
        # contrast, drains to quiescence.)
        if svc.max_events is not None and report.events_seen >= svc.max_events:
            self._stopped = "max-events"
            return True
        return False

    # ------------------------------------------------------------------
    # Guard points of the guarded loop
    # ------------------------------------------------------------------

    def _after_event(self, applied: bool, quiescent: bool) -> bool:
        """Behind every stream event, shed ones included: count it, apply
        the boundary rules, pace. True stops the run after this event."""
        report = self._report
        report.events_seen += 1
        if applied:
            report.events_applied += 1
            self._events_since_checkpoint += 1
        if self._at_boundary(quiescent):
            return True
        rate = self.service.target_ops_per_s
        if rate is not None:
            ahead = self._run_started + report.events_seen / rate - time.monotonic()
            if ahead > 0.001:
                time.sleep(ahead)
                report.paced_sleep_s += ahead
        return False

    def _admit(self, op: int, a: int, i: int, ci: int, wi: int) -> bool:
        """Admission control in front of event ``i`` of the current chunk
        (opcode ``op``, first operand ``a``; ``ci``/``wi`` index its create
        or write sub-columns). False sheds the event."""
        shed = self._shed_oids
        if not shed and op != _CREATE and self._shed_txid is None:
            return True  # nothing shed so far, nothing to allocate
        admission = self.admission
        stats = admission.stats
        cols = self._columns
        # Skip the remainder of a shed transaction block.
        if self._shed_txid is not None:
            stats.shed_events += 1
            if (op == _COMMIT or op == _ABORT) and a == self._shed_txid:
                self._shed_txid = None
            else:
                self._note_shed(op, a, wi)
            return False
        if shed:
            # Cascade: anything referencing a shed object is itself shed
            # (the store has never seen those oids, so applying would
            # fault).
            if op == _CREATE:
                targets = cols.ptr_targets
                lo = cols.create_ptr_start[ci]
                hi = cols.create_ptr_start[ci + 1]
                references = any(targets[j] in shed for j in range(lo, hi))
            elif op == _WRITE:
                references = a in shed or cols.arg1[i] in shed
            else:
                references = op < _PHASE and a in shed
            if references:
                stats.shed_events += 1
                self._note_shed(op, a, wi)
                return False
        # Admission: allocations must fit under the heap bound.
        if op == _CREATE:
            store = self.sim.store
            size = cols.arg1[i]
            tx = self.sim.tx
            shed_block = tx.in_transaction and not admission.fits(store, size)
            if shed_block:
                # Transactions are atomic, and nothing is collected under
                # an open one (a collection could reclaim what the block
                # declared dead, and its abort could not bring that back):
                # an allocation that does not fit sheds the whole block.
                # Undo what already applied and skip to the block's end —
                # then, quiescent again, let the controller force
                # collections until what the block had asked for by now
                # would fit, so the next block finds room.
                occupancy = store.db_size
                txid = tx.current.txid
                tx.abort(txid)
                self._shed_txid = txid
                stats.shed_transactions += 1
                size += occupancy - store.db_size
            if not admission.admit(store, size) or shed_block:
                stats.shed_events += 1
                stats.shed_objects += 1
                shed.add(a)
                if self.obs is not None:
                    self.obs.metrics.counter("service.backpressure.sheds").inc()
                return False
        elif shed and op == _WRITE:
            self._prune_shed(wi)
        return True

    def _note_shed(self, op: int, a: int, wi: int) -> None:
        """Cascade and prune the shed ledger for a skipped event."""
        if op == _CREATE:
            self._shed_oids.add(a)
            self.admission.stats.shed_objects += 1
        elif op == _WRITE and self._shed_oids:
            self._prune_shed(wi)

    def _prune_shed(self, wi: int) -> None:
        """Drop shed oids once their death is announced by the stream.

        A ``dies`` annotation is the stream's statement that no later
        event references those objects, so the ledger can forget them —
        this is what keeps shed-set memory bounded over unbounded streams.
        """
        cols = self._columns
        lo = cols.write_dies_start[wi]
        hi = cols.write_dies_start[wi + 1]
        if lo != hi:
            self._shed_oids.difference_update(cols.dies[lo:hi])

    # ------------------------------------------------------------------
    # Durability and collection
    # ------------------------------------------------------------------

    def _forced_collect(self) -> bool:
        # Backpressure hit the heap bound: fall back to stop-the-world.
        # force=True bypasses the parallel scheduler's pump phase so the
        # collection happens *now* (a valid speculative trace is still
        # harvested, but admission never proceeds on a promise).
        store = self.sim.store
        before = store.db_size
        self.sim._collect(force=True)
        return store.db_size < before

    def _log_backlogged(self) -> bool:
        """The redo-log suffix outgrew ``max_log_records``: checkpoint
        early, whatever the event cadence says."""
        bound = self.service.max_log_records
        return bound is not None and self.sim.redo_log.suffix_length > bound

    def _checkpoint(self, report: ServiceReport) -> None:
        """Snapshot, pay the WAL cost, truncate the log (quiescent only).

        Ordering is crash-safe: the WAL write (which an injected
        ``io.write`` fault may kill) happens *before* the redo log is
        truncated, so a crash mid-checkpoint leaves the previous
        checkpoint + full suffix intact and recovery unaffected.
        """
        sim = self.sim
        obs = self.obs
        started = time.perf_counter() if obs is not None else 0.0
        snapshot = build_checkpoint(sim.store, sim._event_index + 1)
        if sim.tx.wal is not None:
            sim.tx.wal.checkpoint(snapshot.estimated_bytes)
        dropped = sim.redo_log.install_checkpoint(snapshot)
        self._events_since_checkpoint = 0
        report.checkpoints += 1
        if obs is not None:
            obs.event(
                "checkpoint",
                event_index=snapshot.event_index,
                objects=len(snapshot.oids),
                log_records_dropped=dropped,
                heap_bytes=sim.store.db_size,
                stall_ms=round((time.perf_counter() - started) * 1e3, 3),
            )
            obs.metrics.counter("service.checkpoints").inc()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _finalise(self, report: ServiceReport) -> None:
        from repro.faults.drill import state_digest

        sim = self.sim
        report.collections = sim.collector.collections_performed
        report.final_digest = state_digest(sim.store)
        if sim.store.db_size > report.heap_peak_bytes:
            report.heap_peak_bytes = sim.store.db_size
        if sim.redo_log is not None:
            report.log_appended_total = sim.redo_log.appended_total
            report.log_truncated_total = sim.redo_log.truncated_total
            report.log_suffix_length = sim.redo_log.suffix_length
        if sim.tx.wal is not None:
            report.wal = sim.tx.wal.stats.as_metrics()
        if self.admission is not None:
            report.backpressure = self.admission.stats
        obs = self.obs
        if obs is not None:
            metrics = obs.metrics
            metrics.gauge("service.events_seen").set(report.events_seen)
            metrics.gauge("service.events_applied").set(report.events_applied)
            metrics.gauge("service.events_fused").set(report.events_fused)
            metrics.gauge("service.next_index").set(report.next_index)
            metrics.gauge("service.collections").set(report.collections)
            metrics.gauge("service.heap_peak_bytes").set(report.heap_peak_bytes)
            metrics.gauge("service.log_suffix").set(report.log_suffix_length)
            metrics.set_many(
                report.backpressure.as_metrics(),
                prefix="service.backpressure.",
            )
            if report.wal:
                metrics.set_many(report.wal, prefix="wal.")
            metrics.gauge("service.paced_sleep_s").set(
                round(report.paced_sleep_s, 6)
            )
            metrics.gauge("service.stream_wait_s").set(round(report.stream_wait_s, 6))
            metrics.gauge("service.stream_fallbacks").set(report.stream_fallbacks)
            obs.event(
                "service_stop",
                stopped=report.stopped,
                events_seen=report.events_seen,
                events_applied=report.events_applied,
                checkpoints=report.checkpoints,
                digest=report.final_digest,
                stream_host=report.stream_host,
                stream_wait_s=round(report.stream_wait_s, 6),
                stream_fallbacks=report.stream_fallbacks,
            )
