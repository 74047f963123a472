"""The event-at-a-time service loop, kept as the oracle of the chunk loop.

Until the service moved onto column chunks this *was* ``GcService.run``:
one event object at a time through ``_process`` → apply → dispatch →
``tx.*``, with the auto-commit bracket written out as three calls
(``begin`` → operation → ``commit``). It is slow and obvious, which is the
point: ``test_chunk_loop_oracle.py`` runs it next to the production loop
and requires the same report, the same summary, the same log and — for an
injected crash — the same ``event_index`` / ``resume_index``.

Nothing here reads a column: events come from ``stream.events_from`` and
are told apart by class. What one event does is ``tests/event_oracle.py``'s
business (the replay oracle every interpreter is compared against); this
module adds the service's rules around it — admission, shedding,
checkpoints, pacing.
"""

import time

from repro.events import (
    AbortTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    IdleEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
)
from repro.faults.injector import SimulatedCrash
from repro.service.server import GcService, ServiceReport

from event_oracle import apply_event, note_activity


class EventLoopService(GcService):
    """``GcService`` with the pre-chunk ``run`` loop."""

    def run(self, start_index: int = 0) -> ServiceReport:
        sim = self.sim
        svc = self.service
        store = sim.store
        tx = sim.tx
        run_started = time.monotonic()
        report = ServiceReport(next_index=start_index)
        events = self.stream.events_from(start_index)
        rate = svc.target_ops_per_s
        max_events = svc.max_events
        obs = self.obs
        if obs is not None:
            obs.event(
                "service_start",
                stream=self.stream.label,
                start_index=start_index,
                policy=sim.policy.describe(),
            )
        stopped = "end-of-stream"
        try:
            sim._start(start_index)
            for event in events:
                sim._event_index += 1
                sim._event_applied = False
                report.events_seen += 1
                applied = self._process(event)
                sim._event_applied = True
                if applied:
                    report.events_applied += 1
                    self._events_since_checkpoint += 1
                quiescent = not tx.in_transaction
                if quiescent:
                    while sim._clock() >= sim._due_at:
                        sim._collect()
                # Occupancy is read behind the collections an event fires:
                # what the service reports is the heap it carried from one
                # event to the next.
                occupancy = store.db_size
                if occupancy > report.heap_peak_bytes:
                    report.heap_peak_bytes = occupancy
                if quiescent:
                    if self._checkpoint_due():
                        self._checkpoint(report)
                    if self._shutdown_requested:
                        stopped = "shutdown"
                        break
                if max_events is not None and report.events_seen >= max_events:
                    stopped = "max-events"
                    break
                if rate is not None:
                    ahead = (
                        run_started
                        + report.events_seen / rate
                        - time.monotonic()
                    )
                    if ahead > 0.001:
                        time.sleep(ahead)
                        report.paced_sleep_s += ahead
        except SimulatedCrash as crash:
            sim._annotate_crash(crash)
            raise
        if not tx.in_transaction and report.events_applied:
            self._checkpoint(report)
        report.stopped = stopped
        report.next_index = start_index + report.events_seen
        report.wall_s = time.monotonic() - run_started
        self._finalise(report)
        return report

    def _checkpoint_due(self) -> bool:
        svc = self.service
        if self._events_since_checkpoint >= svc.checkpoint_every_events:
            return True
        return (
            svc.max_log_records is not None
            and self.sim.redo_log.suffix_length > svc.max_log_records
        )

    def _process(self, event) -> bool:
        """Apply one stream event, or shed it. True when applied."""
        admission = self.admission
        if admission is None:
            apply_event(self.sim, event)
            self._sample(event)
            return True
        shed = self._shed_oids
        cls = event.__class__
        # Skip the remainder of a shed transaction block.
        if self._shed_txid is not None:
            if cls is CommitTransactionEvent or cls is AbortTransactionEvent:
                if event.txid == self._shed_txid:
                    self._shed_txid = None
                    admission.stats.shed_events += 1
                    return False
            admission.stats.shed_events += 1
            self._note_shed_references(event)
            return False
        # Cascade: anything referencing a shed object is itself shed.
        if shed and self._references_shed(event):
            admission.stats.shed_events += 1
            self._note_shed_references(event)
            return False
        # Admission: allocations must fit under the heap bound.
        if cls is CreateEvent:
            store = self.sim.store
            tx = self.sim.tx
            # Inside a block nothing is collected: an allocation that does
            # not fit aborts and sheds the block first, and only then are
            # collections forced — until everything the block had asked
            # for would fit, so the next one finds room.
            size = event.size
            shed_block = tx.in_transaction and not admission.fits(store, size)
            if shed_block:
                occupancy = store.db_size
                txid = tx.current.txid
                tx.abort(txid)
                self._shed_txid = txid
                admission.stats.shed_transactions += 1
                size += occupancy - store.db_size
            if not admission.admit(store, size) or shed_block:
                admission.stats.shed_events += 1
                admission.stats.shed_objects += 1
                shed.add(event.oid)
                if self.obs is not None:
                    self.obs.metrics.counter("service.backpressure.sheds").inc()
                return False
        apply_event(self.sim, event)
        self._prune_ledger(event)
        self._sample(event)
        return True

    def _sample(self, event) -> None:
        sim = self.sim
        cls = event.__class__
        if cls is PhaseMarkerEvent:
            return
        if cls is IdleEvent:
            sim._handle_idle(event.ticks)
            return
        note_activity(sim)
        sim.sampler.on_event(sim.store, sim.store.iostats)

    def _references_shed(self, event) -> bool:
        shed = self._shed_oids
        cls = event.__class__
        if cls is CreateEvent:
            return any(
                target is not None and target in shed
                for _slot, target in event.pointers
            )
        if cls is PointerWriteEvent:
            return event.src in shed or (
                event.target is not None and event.target in shed
            )
        oid = getattr(event, "oid", None)
        return oid is not None and oid in shed

    def _note_shed_references(self, event) -> None:
        """Cascade and prune the shed ledger for a skipped event."""
        if event.__class__ is CreateEvent:
            self._shed_oids.add(event.oid)
            self.admission.stats.shed_objects += 1
        self._prune_ledger(event)

    def _prune_ledger(self, event) -> None:
        """Drop shed oids once their death is announced by the stream."""
        if self._shed_oids and event.__class__ is PointerWriteEvent and event.dies:
            self._shed_oids.difference_update(event.dies)
