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

Event objects are an input format, not an execution path:
:meth:`Simulation.run` compiles whatever it is given into a
:class:`~repro.workload.compiled.CompiledTrace` and the loop above runs over
its columns, in one of the two interpreters of :mod:`repro.sim.batch`.
"""

from __future__ import annotations

import contextlib
import math
import operator
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.core.extensions import OpportunisticPolicy
from repro.core.rate_policy import PolicyContext, RatePolicy, TimeBase, Trigger
from repro.events import TraceEvent
from repro.faults.injector import FaultInjector, SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.gc.collector import CollectionResult, CopyingCollector
from repro.gc.selection import PartitionSelectionPolicy, UpdatedPointerSelection
from repro.sim import batch
from repro.sim.metrics import Sampler, SimulationSummary
from repro.storage.heap import ObjectStore, StoreConfig
from repro.tx.manager import TransactionManager
from repro.tx.recovery import RedoLog
from repro.workload.chunks import Chunk
from repro.workload.compiled import CompiledTrace, compile_trace
from repro.workload.trace_cache import StreamedTrace

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.telemetry import RunTelemetry

#: Trigger-clock reader per time base, called with the store. Module-level
#: readers hold no simulation, so a Simulation never references a bound
#: method of itself and a finished run is freed by reference counting.
_CLOCK_READERS = {
    TimeBase.OVERWRITES: operator.attrgetter("pointer_overwrites"),
    TimeBase.ALLOCATED: operator.attrgetter("bytes_allocated_total"),
    TimeBase.APP_IO: operator.attrgetter("iostats.application_total"),
}


@dataclass
class SimulationConfig:
    """Knobs of a simulation run.

    Attributes:
        store: Store geometry (partition/page/buffer sizes).
        preamble_collections: Cold-start collections excluded from means.
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
        replay: Which column interpreter of :mod:`repro.sim.batch` drives
            the run. ``"auto"`` (default) takes the fused interpreter
            whenever the run is eligible for it (no fault injector,
            opportunistic policy or hooked component; a
            redo log and a WAL are fine) and the guarded one otherwise;
            ``"scalar"`` never enters the fused interpreter
            — every event goes one at a time through the store's real
            methods. Whatever :meth:`Simulation.run` is handed (events, a
            workload, a compiled trace) is compiled to columns first, so
            the choice never depends on the input's type. Both
            interpreters are result-identical (summaries pickle-equal,
            property-tested against an independent event-object loop under
            ``tests/``), so this field is excluded from experiment
            fingerprints — see :mod:`repro.canonical`.
        collection: How triggered collections execute. ``"serial"``
            (default) traces and reclaims inside the trigger window;
            ``"parallel"`` pre-traces the likely victim shortly before the
            trigger, at wake-ups that halve the remaining distance to it
            (the scheduler of :mod:`repro.gc.parallel`, which sets how
            early the first one comes by feedback on its own hits and
            wasted traces), validates the speculative trace against the
            store's trace epochs at the due point, and applies reclamation
            in the exact serial order. Results are identical in both modes
            (pickle-equal summaries, property-tested), so this field — and
            ``gc_workers`` — is excluded from experiment fingerprints like
            ``replay``.
        gc_workers: No effect. Once the width of a thread fan-out for
            ``collection="parallel"``; no threaded candidate ever supplied
            a collection's trace and the threads are gone (PR 24). Still
            validated (>= 1, and 1 unless ``collection="parallel"``)
            because ``bench/`` sets it; it goes when ``bench/`` is next
            open (ROADMAP item 1).
    """

    store: StoreConfig = field(default_factory=StoreConfig)
    preamble_collections: int = 10
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
        if self.config.gc_workers < 1:
            raise ValueError(
                f"gc_workers must be >= 1, got {self.config.gc_workers}"
            )
        self._par = None
        if self.config.collection == "parallel":
            from repro.gc.parallel import ParallelCollectionScheduler

            self._par = ParallelCollectionScheduler(
                self.store, self.collector, self.selection
            )
        elif self.config.gc_workers != 1:
            raise ValueError("gc_workers requires collection='parallel'")
        self.sampler = Sampler(preamble_collections=self.config.preamble_collections)
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
        if self.redo_log is not None:
            self._auto_txid = min(self._auto_txid, self.redo_log.min_txid - 1)
        self._trigger: Optional[Trigger] = None
        self._clock_read = _CLOCK_READERS[TimeBase.APP_IO]
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

        ``trace`` is a :class:`~repro.workload.compiled.CompiledTrace` or
        anything :func:`~repro.workload.compiled.compile_trace` accepts —
        a workload (:class:`repro.workload.base.WorkloadSpec`, drained
        through its ``steps``) or an iterable of events. It is
        compiled whole before the policy is armed or the store touched, so
        a source that fails (a generator that raises, an unknown event
        class) leaves the simulation as it was. A caller that replays one
        trace many times compiles it once itself.

        ``trace`` may also be a :class:`~repro.workload.trace_cache.
        StreamedTrace`, a trace-cache miss still being cut: each chunk is
        replayed as it arrives, and the feed is closed however the run
        ends. A generator that fails mid-stream then fails the run part-way.

        ``start_index`` skips the first events of the trace while keeping
        event indices absolute — a crash-recovery drill passes the full
        trace together with the crash's ``resume_index`` so the resumed run
        re-executes exactly the events whose effects were lost.

        ``deadline`` is a ``time.monotonic`` instant after which the run
        raises :class:`~repro.sim.engine.RunTimeoutError`; the engine passes
        its per-run timeout this way and the interpreters check it in-loop.

        An injected crash propagates as :class:`~repro.faults.injector.
        SimulatedCrash`, annotated with the current ``event_index`` and the
        ``resume_index`` a continuation must restart from (the begin of the
        transaction in flight, or the next unprocessed event).
        """
        if isinstance(trace, StreamedTrace):
            with contextlib.closing(trace):
                if start_index:
                    raise ValueError("a streamed trace replays from its first event")
                return self._replay(trace, 0, deadline)
        if not isinstance(trace, CompiledTrace):
            trace = compile_trace(trace)
        return self._replay(((trace, start_index),), start_index, deadline)

    def _replay(
        self, chunks: Iterable[Chunk], start_index: int, deadline: Optional[float]
    ) -> SimulationResult:
        """Arm the run at ``start_index``, replay each ``(chunk, offset)``
        from its offset on, and finish. Each chunk takes the fused
        interpreter if the run is eligible for it as that chunk starts
        (an open transaction is not), the guarded one otherwise."""
        try:
            self._start(start_index)
            for chunk, offset in chunks:
                cache = batch._ensure_cache(chunk)
                end = len(cache.ops)
                ci, wi = batch._prefix_counts(cache.ops, offset)
                if self.config.replay != "scalar" and batch._fast_eligible(self):
                    batch._replay_fast(
                        self, chunk, cache, offset, end, ci, wi, deadline
                    )
                else:
                    batch._replay_guarded(
                        self, chunk, cache, offset, end, ci, wi, deadline, False
                    )
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

    # ------------------------------------------------------------------
    # Collection triggering
    # ------------------------------------------------------------------

    def _clock(self) -> float:
        if self._trigger is None:
            return 0.0
        return self._clock_read(self.store)

    def _schedule(self, trigger: Trigger) -> None:
        self._trigger = trigger
        # Rebinding the reader here keeps _clock() a single indirect call
        # per event instead of an enum comparison chain.
        self._clock_read = _CLOCK_READERS[trigger.base]
        now = self._clock_read(self.store)
        due = now + trigger.interval
        self._real_due_at = due
        par = self._par
        if par is None or due == math.inf:
            self._due_at = due
        else:
            # Wake early, the scheduler's current lead ahead of the
            # trigger, to pump speculative traces; the pump is read-only
            # and the loops re-check against the real deadline, so
            # collection timing is unchanged.
            self._due_at = due - par.lead(trigger.interval)

    def _collect(self, force: bool = False) -> None:
        par = self._par
        if par is not None and not force and (now := self._clock()) < self._real_due_at:
            # Inside the window: the trigger has not fired yet. Snapshot and
            # trace the likely victim, refreshing a snapshot the mutator
            # invalidated, then wake again halfway to the real deadline.
            # The halving schedule costs O(log window) pumps instead of
            # one per tick, and its last wake-up still lands one tick
            # before the trigger, so staleness at apply stays bounded by
            # the final tick's mutations. Pumps are read-only, so the
            # wake-ups can never change what the run computes.
            par.pump()
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

    def _handle_idle(self, ticks: int = 1) -> None:
        if not isinstance(self.policy, OpportunisticPolicy):
            return
        for _tick in range(ticks):
            if self.policy.note_idle(self.store):
                # Opportunistic collections happen now regardless of the
                # trigger deadline — bypass the parallel pump phase.
                self._collect(force=True)
