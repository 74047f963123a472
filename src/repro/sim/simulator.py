"""The trace-driven simulation engine (§3.2).

A :class:`Simulation` wires together a store, a collector, a
partition-selection policy, a collection-rate policy, and a metrics sampler,
then replays a trace:

1. each event is applied to the store (creates, accesses, pointer writes);
2. after every event the active trigger is checked against its clock —
   pointer overwrites or application I/O operations, depending on the rate
   policy's time base — and a collection runs when the deadline passes;
3. after each collection the rate policy computes the next trigger from what
   just happened (the self-adaptive feedback loop of §2).

Idle events additionally give opportunistic policies (§5) a chance to
volunteer extra collections.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.core.extensions import OpportunisticPolicy
from repro.core.rate_policy import PolicyContext, RatePolicy, TimeBase, Trigger
from repro.faults.injector import FaultInjector, SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.gc.collector import CollectionResult, CopyingCollector
from repro.gc.selection import PartitionSelectionPolicy, UpdatedPointerSelection
from repro.sim import batch
from repro.sim.metrics import Sampler, SimulationSummary
from repro.storage.heap import ObjectStore, StoreConfig
from repro.tx.recovery import RedoLog
from repro.events import (
    AbortTransactionEvent,
    AccessEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    IdleEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
    RootEvent,
    TraceEvent,
    UpdateEvent,
)
from repro.tx.manager import TransactionManager
from repro.workload.compiled import CompiledTrace

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.telemetry import RunTelemetry


# ----------------------------------------------------------------------
# Event dispatch (hot path)
#
# The replay loop applies one handler per trace event; with tens of
# thousands of events per run an isinstance chain is measurable. Handlers
# are keyed by *exact* event class; unknown subclasses resolve through the
# original isinstance order once and are memoised, so behaviour is
# unchanged for exotic event hierarchies.
# ----------------------------------------------------------------------


def _h_pointer_write(sim: "Simulation", event, sink) -> None:
    sink.write_pointer(event.src, event.slot, event.target, dies=event.dies)


def _h_create(sim: "Simulation", event, sink) -> None:
    sink.create(
        size=event.size,
        kind=event.kind,
        pointers=dict(event.pointers),
        oid=event.oid,
    )


def _h_access(sim: "Simulation", event, sink) -> None:
    sink.access(event.oid)


def _h_update(sim: "Simulation", event, sink) -> None:
    sink.update(event.oid)


def _h_root(sim: "Simulation", event, sink) -> None:
    sink.register_root(event.oid)


def _h_begin(sim: "Simulation", event, sink) -> None:
    sim.tx.begin(event.txid)
    sim._tx_start_index = sim._event_index


def _h_commit(sim: "Simulation", event, sink) -> None:
    sim.tx.commit(event.txid)


def _h_abort(sim: "Simulation", event, sink) -> None:
    sim.tx.abort(event.txid)


def _h_phase(sim: "Simulation", event, sink) -> None:
    sim.sampler.on_phase(event.name)


def _h_idle(sim: "Simulation", event, sink) -> None:
    pass  # Quiescence: no store activity.


#: Exact-class handler table; extended lazily for subclasses.
_EVENT_HANDLERS = {
    PointerWriteEvent: _h_pointer_write,
    CreateEvent: _h_create,
    AccessEvent: _h_access,
    UpdateEvent: _h_update,
    RootEvent: _h_root,
    BeginTransactionEvent: _h_begin,
    CommitTransactionEvent: _h_commit,
    AbortTransactionEvent: _h_abort,
    PhaseMarkerEvent: _h_phase,
    IdleEvent: _h_idle,
}

#: isinstance resolution order for event subclasses — matches the original
#: dispatch chain exactly.
_HANDLER_ORDER = (
    (PointerWriteEvent, _h_pointer_write),
    (CreateEvent, _h_create),
    (AccessEvent, _h_access),
    (UpdateEvent, _h_update),
    (RootEvent, _h_root),
    (BeginTransactionEvent, _h_begin),
    (CommitTransactionEvent, _h_commit),
    (AbortTransactionEvent, _h_abort),
    (PhaseMarkerEvent, _h_phase),
    (IdleEvent, _h_idle),
)


#: Cap on memoised event classes per dispatch table. The memo keys are class
#: objects, so an unbounded table would pin every event subclass ever seen
#: (and grow without limit) for the life of the process — a real leak for
#: long-lived processes and test suites that mint event classes dynamically.
#: Ordinary traces only use the ten builtin classes and never hit the cap.
_DYNAMIC_CLASS_LIMIT = 256

#: The statically registered event classes; never evicted from any memo.
_BUILTIN_EVENT_CLASSES = frozenset(_EVENT_HANDLERS)


def _bounded_memo(table: dict, cls: type, value):
    """Insert ``table[cls] = value``, evicting dynamic entries at the cap.

    The hit path stays a plain dict ``get``; the eviction sweep runs only
    when a *new* dynamic (non-builtin) class is inserted past the cap.
    """
    if cls not in _BUILTIN_EVENT_CLASSES and len(table) >= _DYNAMIC_CLASS_LIMIT:
        for key in [k for k in table if k not in _BUILTIN_EVENT_CLASSES]:
            del table[key]
    table[cls] = value
    return value


def _resolve_handler(cls: type):
    """Memoise the handler for an event subclass (original chain order)."""
    for base, handler in _HANDLER_ORDER:
        if issubclass(cls, base):
            return _bounded_memo(_EVENT_HANDLERS, cls, handler)
    raise TypeError(f"unknown trace event class {cls!r}")


#: Event kinds the run loop special-cases, memoised per class.
#: 0 = normal database event, 1 = phase marker, 2 = idle.
_RUN_KINDS = {cls: 0 for cls in _EVENT_HANDLERS}
_RUN_KINDS[PhaseMarkerEvent] = 1
_RUN_KINDS[IdleEvent] = 2

#: Events whose application mutates durable logical state, with the
#: :meth:`TransactionManager.autocommit` operation each one is.
_AUTOCOMMIT_OPS = (
    (PointerWriteEvent, "write"),
    (CreateEvent, "create"),
    (UpdateEvent, "update"),
    (RootEvent, "root"),
)

#: Per-class memo of the redo-log auto-commit operation (None: not mutating).
_MUTATING_MEMO: dict[type, Optional[str]] = {}


def _autocommit_op(event: TraceEvent) -> Optional[str]:
    for base, op in _AUTOCOMMIT_OPS:
        if isinstance(event, base):
            return op
    return None


def _deadline_guard(trace, deadline: float):
    """Yield ``trace``'s events until the monotonic ``deadline`` passes.

    The portable timeout mechanism for the scalar replay loop: one clock
    read per event, no signals — works on every platform (SIGALRM does not
    exist on Windows), in worker threads (``signal.signal`` is
    main-thread-only), and composes with any number of concurrent runs.
    Granularity is one event, which is the simulation's natural unit of
    forward progress. The batched interpreter enforces the same deadline
    itself (:mod:`repro.sim.batch`).
    """
    monotonic = time.monotonic
    for event in trace:
        if monotonic() >= deadline:
            from repro.sim.engine import RunTimeoutError

            raise RunTimeoutError("simulation run exceeded run_timeout")
        yield event


@dataclass
class SimulationConfig:
    """Knobs of a simulation run.

    Attributes:
        store: Store geometry (partition/page/buffer sizes).
        preamble_collections: Cold-start collections excluded from means.
        keep_event_series: Retain per-event samples (Figures 6/7 need them).
        series_stride: Sampling stride for retained series.
        max_collections: Safety valve — abort if a policy goes pathological.
        validate_every: Debug mode — audit every store invariant after each
            N-th collection (0 disables). Expensive; meant for tests and
            debugging, not measurement runs.
        enable_wal: Attach a write-ahead log to the transaction manager;
            transactional traces then pay realistic logging I/O (charged as
            application I/O, so it competes with the collector under SAIO).
        wal_page_size: Log page size when the WAL is enabled.
        enable_redo_log: Maintain a logical redo log
            (:class:`~repro.tx.recovery.RedoLog`) sufficient to rebuild the
            committed state after a crash. Mutations outside an explicit
            transaction are auto-committed as singleton transactions so the
            log covers the whole trace. Logical logging charges no I/O, so
            enabling it never changes simulation results — it only makes
            crash–recover–continue drills possible.
        replay: Which replay interpreter drives the run. ``"auto"``
            (default) uses the batched interpreter of :mod:`repro.sim.batch`
            whenever the trace is a
            :class:`~repro.workload.compiled.CompiledTrace` and the
            simulation is the stock :class:`Simulation` class, falling back
            to the scalar per-event loop otherwise (a caller that wants the
            batched path on plain events passes them through
            :func:`~repro.workload.compiled.compile_trace` first);
            ``"scalar"`` forces the per-event loop — the oracle the tests
            and benchmarks compare against. Both interpreters are
            result-identical (summaries pickle-equal, property-tested), so
            this field is excluded from experiment fingerprints — see
            :mod:`repro.canonical`.
        collection: How triggered collections execute. ``"serial"``
            (default) traces and reclaims inside the trigger window on the
            replay thread; ``"parallel"`` pre-traces likely victims
            speculatively before the trigger, at wake-ups that halve the
            remaining distance to it (the scheduler of
            :mod:`repro.gc.parallel`), validates each speculative trace
            against the store's trace epochs at the due point, and applies
            reclamation in the exact serial order. Results are identical
            in both modes at any worker count (pickle-equal summaries,
            property-tested), so this field — and ``gc_workers`` — is
            excluded from experiment fingerprints like ``replay``.
        gc_workers: Fan-out width for ``collection="parallel"``: the
            predicted victim is traced inline at the pump; when > 1, up to
            ``gc_workers - 1`` further candidates are traced on threads
            once the prediction moves between pumps. Affects wall-clock
            only.
    """

    store: StoreConfig = field(default_factory=StoreConfig)
    preamble_collections: int = 10
    keep_event_series: bool = False
    series_stride: int = 1
    max_collections: int = 100_000
    validate_every: int = 0
    enable_wal: bool = False
    wal_page_size: int = 8 * 1024
    enable_redo_log: bool = False
    replay: str = "auto"
    collection: str = "serial"
    gc_workers: int = 1


@dataclass
class SimulationResult:
    """Everything a run produced."""

    summary: SimulationSummary
    sampler: Sampler
    store: ObjectStore
    policy: RatePolicy

    @property
    def collections(self):
        return self.sampler.collection_records

    @property
    def event_series(self):
        return self.sampler.event_series


class Simulation:
    """One trace-driven simulation run."""

    def __init__(
        self,
        policy: RatePolicy,
        selection: Optional[PartitionSelectionPolicy] = None,
        config: Optional[SimulationConfig] = None,
        faults: Union[FaultInjector, FaultPlan, None] = None,
        store: Optional[ObjectStore] = None,
        redo_log: Optional[RedoLog] = None,
        obs: Optional["RunTelemetry"] = None,
    ) -> None:
        """Args beyond the policy/selection/config triple:

        faults: A :class:`~repro.faults.plan.FaultPlan` (an injector is
            built from it) or a live :class:`~repro.faults.injector.
            FaultInjector` (shared across crash–recover–continue cycles so
            occurrence counters keep advancing). Wired into the storage,
            transaction and collection layers.
        store: An existing store to run against — a crash-recovery drill
            passes the store :func:`~repro.tx.recovery.recover` rebuilt.
            Must have been built with a geometry matching ``config.store``.
        redo_log: An existing redo log to append to (resumed runs continue
            the pre-crash log); a fresh one is created when
            ``config.enable_redo_log`` is set and no log is given.
        obs: A :class:`~repro.obs.telemetry.RunTelemetry` observer. When
            set, each collection emits a GC-timeline record and the run's
            final stats are snapshot into the telemetry metrics registry.
            Telemetry only observes — results are identical with or
            without it (the ``if obs is not None`` guards mirror the
            ``fault_hook`` idiom, so the disabled path costs nothing).
        """
        self.config = config or SimulationConfig()
        if self.config.replay not in ("auto", "scalar"):
            raise ValueError(
                f"replay must be 'auto' or 'scalar', got {self.config.replay!r}"
            )
        self.policy = policy
        self.selection = selection or UpdatedPointerSelection()
        self.store = store if store is not None else ObjectStore(self.config.store)
        self.collector = CopyingCollector(self.store)
        if self.config.collection not in ("serial", "parallel"):
            raise ValueError(
                f"collection must be 'serial' or 'parallel', "
                f"got {self.config.collection!r}"
            )
        self._par = None
        if self.config.collection == "parallel":
            from repro.gc.parallel import ParallelCollectionScheduler

            self._par = ParallelCollectionScheduler(
                self.store,
                self.collector,
                self.selection,
                workers=self.config.gc_workers,
            )
        elif self.config.gc_workers != 1:
            raise ValueError("gc_workers requires collection='parallel'")
        self.sampler = Sampler(
            preamble_collections=self.config.preamble_collections,
            keep_event_series=self.config.keep_event_series,
            series_stride=self.config.series_stride,
        )
        wal = None
        if self.config.enable_wal:
            from repro.tx.wal import WriteAheadLog

            wal = WriteAheadLog(self.store.iostats, page_size=self.config.wal_page_size)
        self.redo_log = redo_log
        if self.redo_log is None and self.config.enable_redo_log:
            self.redo_log = RedoLog()
        self.tx = TransactionManager(self.store, wal=wal, redo_log=self.redo_log)
        self.obs = obs
        self.faults = FaultInjector(faults) if isinstance(faults, FaultPlan) else faults
        if self.faults is not None:
            self.store.attach_fault_injector(self.faults)
            self.tx.fault_hook = self.faults.fire
        # Auto-commit transactions use negative txids so they can never
        # collide with trace txids; when resuming onto an existing log the
        # counter continues below the log's most negative id.
        self._auto_txid = -1
        if self.redo_log is not None and self.redo_log.records:
            floor = min((r.txid for r in self.redo_log.records), default=0)
            self._auto_txid = min(self._auto_txid, floor - 1)
        self._trigger: Optional[Trigger] = None
        self._clock_read = self._clock_app_io
        self._due_at: float = float("inf")
        # The true trigger deadline. In parallel-collection mode _due_at is
        # pulled earlier to the margin point so the replay loops wake the
        # scheduler to pump speculative traces; collections themselves still
        # happen exactly when the clock reaches _real_due_at.
        self._real_due_at: float = float("inf")
        self._event_index = -1
        self._event_applied = True
        self._tx_start_index: Optional[int] = None

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(
        self,
        trace: Iterable[TraceEvent],
        start_index: int = 0,
        *,
        deadline: Optional[float] = None,
    ) -> SimulationResult:
        """Replay a trace to completion and return the results.

        ``start_index`` skips the first events of the trace while keeping
        event indices absolute — a crash-recovery drill passes the full
        trace together with the crash's ``resume_index`` so the resumed run
        re-executes exactly the events whose effects were lost.

        ``deadline`` is a ``time.monotonic`` instant after which the run
        raises :class:`~repro.sim.engine.RunTimeoutError`; the engine passes
        its per-run timeout this way so the batched interpreter can enforce
        it without the trace being wrapped in a per-event generator (which
        would hide the :class:`~repro.workload.compiled.CompiledTrace`
        columns the batched path reads).

        An injected crash propagates as :class:`~repro.faults.injector.
        SimulatedCrash`, annotated with the current ``event_index`` and the
        ``resume_index`` a continuation must restart from (the begin of the
        transaction in flight, or the next unprocessed event).
        """
        try:
            self._start(start_index)
            # Subclasses may override _apply/_dispatch/_note_activity; the
            # batched interpreter inlines those hooks, so anything other
            # than the stock Simulation class replays scalar.
            if (
                self.config.replay != "scalar"
                and type(self) is Simulation
                and isinstance(trace, CompiledTrace)
            ):
                cache = batch._ensure_cache(trace)
                end = len(cache.ops)
                ci, wi = batch._prefix_counts(cache.ops, start_index)
                if batch._fast_eligible(self):
                    batch._replay_fast(
                        self, trace, cache, start_index, end, ci, wi, deadline
                    )
                else:
                    batch._replay_guarded(
                        self, trace, cache, start_index, end, ci, wi, deadline, False
                    )
            else:
                self._replay_events(trace, start_index, deadline)
        except SimulatedCrash as crash:
            self._annotate_crash(crash)
            raise
        return self._finish()

    def _start(self, start_index: int) -> None:
        """Run prologue shared by every driver: position the event index
        at ``start_index`` and arm the policy's first trigger."""
        if start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {start_index}")
        self._event_index = start_index - 1
        self._tx_start_index = None
        self._schedule(self.policy.first_trigger(self.store, self.store.iostats))

    def _annotate_crash(self, crash: SimulatedCrash) -> None:
        """Stamp an injected crash with where a continuation restarts: the
        begin of the transaction in flight, else the first unapplied event."""
        crash.event_index = self._event_index
        crash.resume_index = (
            self._tx_start_index
            if self.tx.in_transaction and self._tx_start_index is not None
            else self._event_index + (0 if not self._event_applied else 1)
        )

    def _finish(self) -> SimulationResult:
        result = SimulationResult(
            summary=self.sampler.summary(self.store, self.store.iostats),
            sampler=self.sampler,
            store=self.store,
            policy=self.policy,
        )
        if self.obs is not None:
            self.obs.on_run_end(self, result)
        return result

    def _replay_events(
        self,
        trace: Iterable[TraceEvent],
        start_index: int,
        deadline: Optional[float],
    ) -> None:
        """The scalar loop: one event object at a time through ``_apply``."""
        if deadline is not None:
            trace = _deadline_guard(trace, deadline)
        if start_index:
            trace = itertools.islice(iter(trace), start_index, None)
        # Hot-loop hoists: bound methods and invariant objects looked up
        # once instead of once per event. Bound lookups still honour
        # subclass overrides of _apply/_handle_idle/sampler.on_event.
        apply_event = self._apply
        handle_idle = self._handle_idle
        sample_event = self.sampler.on_event
        store = self.store
        iostats = store.iostats
        tx = self.tx
        clock = self._clock
        collect = self._collect
        run_kinds = _RUN_KINDS
        note_activity = None
        if type(self)._note_activity is not Simulation._note_activity:
            note_activity = self._note_activity  # subclass hook
        elif isinstance(self.policy, OpportunisticPolicy):
            note_activity = self.policy.note_activity
        for event in trace:
            self._event_index += 1
            # Tracks whether the current event's application finished;
            # decides if a crash resumes at this event or the next one.
            self._event_applied = False
            apply_event(event)
            self._event_applied = True
            cls = event.__class__
            kind = run_kinds.get(cls)
            if kind is None:
                if isinstance(event, PhaseMarkerEvent):
                    kind = 1
                elif isinstance(event, IdleEvent):
                    kind = 2
                else:
                    kind = 0
                _bounded_memo(run_kinds, cls, kind)
            if kind:
                if kind == 1:
                    continue
                handle_idle(event.ticks)
                continue
            if note_activity is not None:
                note_activity()
            sample_event(store, iostats)
            if tx.in_transaction:
                # The database is never collected mid-transaction (§3.2's
                # whole-database-lock model); triggers fire at commit/abort.
                continue
            while clock() >= self._due_at:
                collect()

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------

    def _apply(self, event: TraceEvent) -> None:
        # With redo logging enabled, mutations outside an explicit
        # transaction are auto-committed as singleton transactions so the
        # redo log covers the entire trace (recovery would otherwise lose
        # them). Auto-commit txids are negative — they can never collide
        # with trace txids. Logical logging charges no I/O, so results are
        # unchanged.
        tx = self.tx
        if self.redo_log is not None and not tx.in_transaction:
            cls = event.__class__
            op = _MUTATING_MEMO.get(cls, _MUTATING_MEMO)
            if op is _MUTATING_MEMO:  # unseen class (None is a memoised answer)
                op = _bounded_memo(_MUTATING_MEMO, cls, _autocommit_op(event))
            if op is not None:
                txid = self._auto_txid
                self._auto_txid -= 1
                if op == "write":
                    tx.autocommit(
                        txid, op, event.src,
                        slot=event.slot, target=event.target, dies=event.dies,
                    )
                elif op == "create":
                    tx.autocommit(
                        txid, op, event.oid,
                        size=event.size, kind=event.kind, pointers=dict(event.pointers),
                    )
                else:
                    tx.autocommit(txid, op, event.oid)
                return
        self._dispatch(event, tx if tx.in_transaction else self.store)

    def _dispatch(self, event: TraceEvent, sink) -> None:
        cls = event.__class__
        handler = _EVENT_HANDLERS.get(cls)
        if handler is None:
            handler = _resolve_handler(cls)
        handler(self, event, sink)

    # ------------------------------------------------------------------
    # Collection triggering
    # ------------------------------------------------------------------

    def _clock(self) -> float:
        if self._trigger is None:
            return 0.0
        return self._clock_read()

    def _clock_overwrites(self) -> float:
        return float(self.store.pointer_overwrites)

    def _clock_allocated(self) -> float:
        return float(self.store.bytes_allocated_total)

    def _clock_app_io(self) -> float:
        return float(self.store.iostats.application_total)

    def _clock_reader(self, base: TimeBase):
        """Bound zero-argument reader for one time base (hot-loop form)."""
        if base is TimeBase.OVERWRITES:
            return self._clock_overwrites
        if base is TimeBase.ALLOCATED:
            return self._clock_allocated
        return self._clock_app_io

    def _read_clock(self, base: TimeBase) -> float:
        return self._clock_reader(base)()

    def _schedule(self, trigger: Trigger) -> None:
        self._trigger = trigger
        # Rebinding the reader here keeps _clock() a single indirect call
        # per event instead of an enum comparison chain.
        self._clock_read = self._clock_reader(trigger.base)
        now = self._clock_read()
        due = now + trigger.interval
        self._real_due_at = due
        par = self._par
        if par is not None and par.margin > 0.0 and math.isfinite(due):
            # Wake early at the margin point to pump speculative traces;
            # the pump is read-only and the loops re-check against the
            # real deadline, so collection timing is unchanged.
            self._due_at = max(now, due - trigger.interval * par.margin)
        else:
            self._due_at = due

    def _collect(self, force: bool = False) -> None:
        par = self._par
        if par is not None and not force and self._clock() < self._real_due_at:
            # Margin window: the trigger has not fired yet. Snapshot and
            # trace likely victims, refreshing any snapshot the mutator
            # invalidated, then wake again halfway to the real deadline.
            # The halving schedule costs O(log margin) pumps instead of
            # one per tick, and its last wake-up still lands one tick
            # before the trigger, so staleness at apply stays bounded by
            # the final tick's mutations. Pumps are read-only, so the
            # wake-ups can never change what the run computes.
            par.pump()
            now = self._clock()
            self._due_at = min(
                self._real_due_at, now + max(1.0, (self._real_due_at - now) // 2)
            )
            return
        if self.collector.collections_performed >= self.config.max_collections:
            raise RuntimeError(
                f"exceeded max_collections={self.config.max_collections}; "
                f"policy {self.policy.describe()} appears pathological"
            )
        pid = self.selection.select(self.store)
        if pid is None:
            # Nothing collectable; push the deadline forward by re-arming.
            self._schedule(self._trigger)
            return
        if self.faults is not None:
            # Crash point between partition selection and the collection
            # itself — the model's "mid-collection" crash (collection is
            # atomic here, and it is never logged, so a crash at any point
            # inside it is equivalent to a crash just before it).
            self.faults.fire("gc.collect")
        obs = self.obs
        started = time.perf_counter() if obs is not None else 0.0
        result = par.collect(pid) if par is not None else self.collector.collect(pid)
        self.store.iostats.mark_collection()
        ctx = PolicyContext(result=result, store=self.store, iostats=self.store.iostats)
        trigger = self.policy.next_trigger(ctx)
        self._record_collection(result, trigger)
        if obs is not None and self.sampler.collection_records:
            obs.on_collection(
                result,
                self.sampler.collection_records[-1],
                time.perf_counter() - started,
            )
            # Remembered-set health: current set sizes, lifetime boundary
            # churn, and how much of the heap each collection actually
            # traces. Pure functions of simulation state, so the telemetry
            # determinism contract holds.
            collector = self.collector
            remembered = self.store.remembered.stats()
            remembered["traced_objects_total"] = collector.traced_objects_total
            remembered["heap_objects_total"] = collector.heap_objects_total
            remembered["traced_vs_heap"] = (
                collector.traced_objects_total / collector.heap_objects_total
                if collector.heap_objects_total
                else 0.0
            )
            obs.metrics.set_many(remembered, prefix="gc.remembered.")
            if par is not None:
                obs.metrics.set_many(par.stats(), prefix="gc.parallel.")
        self._schedule(trigger)
        if (
            self.config.validate_every
            and self.collector.collections_performed % self.config.validate_every == 0
        ):
            from repro.storage.validation import validate_store

            validate_store(self.store, strict=True)

    def _record_collection(self, result: CollectionResult, trigger: Trigger) -> None:
        estimator = getattr(self.policy, "estimator", None)
        estimated = estimator.estimate(self.store) if estimator is not None else None
        target = getattr(self.policy, "garbage_fraction", None)
        self.sampler.on_collection(
            result,
            self.store,
            interval_next=trigger.interval,
            estimated_garbage_bytes=estimated,
            target_garbage_fraction=target,
        )

    # ------------------------------------------------------------------
    # Quiescence / opportunism
    # ------------------------------------------------------------------

    def _note_activity(self) -> None:
        if isinstance(self.policy, OpportunisticPolicy):
            self.policy.note_activity()

    def _handle_idle(self, ticks: int = 1) -> None:
        if not isinstance(self.policy, OpportunisticPolicy):
            return
        for _tick in range(ticks):
            if self.policy.note_idle(self.store):
                # Opportunistic collections happen now regardless of the
                # trigger deadline — bypass the parallel pump phase.
                self._collect(force=True)
