"""Parallel multi-seed experiment engine.

The paper's measurement protocol is embarrassingly parallel — every data
point is the mean of independent seeded simulation runs — so this engine
fans the (spec, seed) grid out over a :class:`~concurrent.futures.
ProcessPoolExecutor` and memoises each run in an optional on-disk
:class:`~repro.sim.cache.ResultCache`:

* ``jobs=1`` executes in-process on the exact code path a worker would run,
  so determinism tests can compare serial and parallel results directly;
* results are assembled in task order regardless of completion order, so
  formatted experiment output is byte-identical at any ``jobs`` setting;
* cache hits skip simulation entirely and are reported per run through the
  progress callback and in :class:`~repro.sim.runner.RunStats`.

The engine is failure-tolerant: a run that raises (or exceeds
``run_timeout``) is retried up to ``retries`` times with capped, jittered
exponential backoff, and if it still fails it is *quarantined* — recorded as a
:class:`~repro.sim.runner.RunFailure` on the setting's
:class:`~repro.sim.runner.AggregateResult` — while the rest of the batch
completes and aggregates over the successful runs. A broken worker pool
(e.g. a worker killed by the OOM killer) degrades gracefully: the engine
falls back to the in-process serial path for whatever work remains.

Worker processes cannot unpickle closures, which is why the engine runs on
declarative :class:`~repro.sim.spec.ExperimentSpec` values: the spec
travels to the worker as plain data and is resolved into live policy /
trace / selection objects there, once per seed.

Trace resolution is additionally memoised through an optional
:class:`~repro.workload.trace_cache.TraceCache`: each unique
(workload, seed) trace in a batch is generated and compiled **once per
sweep** — in-process for serial runs; for pooled runs the engine pre-warms
the on-disk compiled binaries (one build per unique trace, fanned over the
pool) and every worker process opens the same cache through its
initializer, so warm workers resolve traces by loading compact binaries
instead of re-running the workload generator. Compiled-trace replay is
event-for-event identical to the generator, so cached and uncached runs
produce byte-identical summaries (and share result-cache fingerprints).
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.telemetry import RunTelemetry, run_telemetry_path
from repro.sim.cache import ResultCache, spec_fingerprint
from repro.sim.metrics import CollectionRecord, SimulationSummary
from repro.sim.runner import AggregateResult, RunFailure, RunStats
from repro.sim.simulator import Simulation
from repro.sim.spec import (
    ExperimentSpec,
    build_policy,
    build_selection,
)
from repro.workload.shm import SharedTraceArena
from repro.workload.trace_cache import TraceCache, trace_fingerprint


class RunTimeoutError(Exception):
    """A single simulation run exceeded the engine's ``run_timeout``."""


@dataclass(frozen=True)
class SeedOutcome:
    """One settled run (success, cache hit, or final failure)."""

    label: str
    seed: int
    #: True when the run was answered from the result cache.
    cached: bool
    #: Wall-clock seconds the simulation took (0 for cache hits).
    wall_time: float
    #: Runs settled so far, including this one.
    completed: int
    #: Total runs in the batch.
    total: int
    #: True when the run failed every attempt and was quarantined.
    failed: bool = False
    #: ``repr`` of the final exception for failed runs.
    error: Optional[str] = None


#: Called once per settled run (cache hit, simulation, or final failure).
ProgressCallback = Callable[[SeedOutcome], None]

CacheLike = Union[ResultCache, str, Path, None]
TraceCacheLike = Union[TraceCache, str, Path, None]

#: Per-worker-process trace cache, installed by :func:`_worker_init` when a
#: pool is created. Workers resolve each (workload, seed) trace through it:
#: the in-process memo answers repeats within the worker, the shared on-disk
#: binaries answer everything the pre-warm pass (or a sibling) compiled.
_WORKER_TRACE_CACHE: Optional[TraceCache] = None


def _worker_init(
    trace_cache_root: Optional[str],
    shared_traces: Optional[dict[str, str]] = None,
) -> None:
    """Process-pool initializer: open this worker's trace cache once.

    ``trace_cache_root=None`` still installs a memo-only cache so a warm
    worker that receives several tasks for the same (workload, seed) skips
    the rebuild even without an on-disk layer.

    ``shared_traces`` (fingerprint → shared-memory segment name) registers
    the parent's published trace segments: resolutions of those traces
    attach to the one shared mapping and decode zero-copy instead of
    re-reading the on-disk binary per worker.
    """
    global _WORKER_TRACE_CACHE
    _WORKER_TRACE_CACHE = TraceCache(trace_cache_root)
    if shared_traces:
        _WORKER_TRACE_CACHE.attach_shared(shared_traces)


def _worker_simulate(spec, seed, keep_records, timeout, telemetry_path=None):
    """The unit of work shipped to pool workers (module-level: picklable)."""
    return _simulate(
        spec, seed, keep_records, timeout=timeout,
        trace_cache=_WORKER_TRACE_CACHE, telemetry_path=telemetry_path,
    )


def _worker_warm_trace(workload, seed) -> None:
    """Pre-warm task: materialise one (workload, seed) compiled trace."""
    if _WORKER_TRACE_CACHE is not None:
        _WORKER_TRACE_CACHE.warm(workload, seed)


@dataclass
class _Progress:
    """Per-batch progress counters.

    Local to each ``run_batch`` call (threaded through explicitly, never
    stored on the runner) so one :class:`ParallelRunner` can serve
    overlapping batches — e.g. re-entrant use from a progress callback or
    from multiple threads — without the counters of one batch corrupting
    another's.
    """

    total: int
    completed: int = 0


@dataclass(frozen=True)
class _Success:
    summary: SimulationSummary
    records: Optional[list[CollectionRecord]]
    cached: bool
    elapsed: float
    #: Simulation attempts spent (0 for cache hits, >=1 otherwise).
    attempts: int
    #: Telemetry file this run wrote (None when telemetry is off or the
    #: run was a cache hit — hits skip simulation and write nothing).
    telemetry: Optional[str] = None


@dataclass(frozen=True)
class _Failure:
    error: str
    attempts: int


def _as_cache(cache: CacheLike) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _as_trace_cache(cache: TraceCacheLike) -> Optional[TraceCache]:
    if cache is None or isinstance(cache, TraceCache):
        return cache
    return TraceCache(cache)


def _simulate(
    spec: ExperimentSpec,
    seed: int,
    keep_records: bool,
    timeout: Optional[float] = None,
    trace_cache: Optional[TraceCache] = None,
    telemetry_path: Union[str, Path, None] = None,
) -> tuple[SimulationSummary, Optional[list[CollectionRecord]], float]:
    """Execute one (spec, seed) run.

    ``timeout`` is enforced with a monotonic deadline checked once per
    trace event (plus once after the run completes, so even runs shorter
    than one check interval are measured against their budget). No signals
    are involved, so enforcement works identically on every platform and
    off the main thread. With a ``trace_cache`` the
    workload trace is resolved through the compiled-trace cache (memo /
    disk / build) instead of re-running the generator; replay is
    event-identical, so the results don't depend on which path ran.

    With a ``telemetry_path`` the run is observed by a
    :class:`~repro.obs.telemetry.RunTelemetry` written to that file on
    success (a failed attempt writes nothing — its buffered records die
    with the exception). Telemetry never changes simulation results.
    """
    started = time.perf_counter()
    obs = None
    if telemetry_path is not None:
        obs = RunTelemetry(
            telemetry_path,
            kind="run",
            label=spec.label or spec.policy.kind,
            seed=seed,
        )
    deadline = time.monotonic() + timeout if timeout is not None else None
    if trace_cache is not None:
        policy = build_policy(spec.policy, seed)
        selection = build_selection(spec.selection, seed)
        trace = trace_cache.get_or_build(spec.workload, seed)
    else:
        policy, trace, selection = spec.resolve(seed)
    faults = FaultInjector(spec.faults) if spec.faults is not None else None
    sim = Simulation(
        policy=policy, selection=selection, config=spec.sim, faults=faults,
        obs=obs,
    )
    # The deadline is handed to the run itself: both interpreters check
    # it in-loop.
    if obs is not None:
        with obs.span("simulate"):
            result = sim.run(trace, deadline=deadline)
    else:
        result = sim.run(trace, deadline=deadline)
    if deadline is not None and time.monotonic() >= deadline:
        raise RunTimeoutError("simulation run exceeded run_timeout")
    elapsed = time.perf_counter() - started
    if obs is not None:
        obs.close()
    records = list(result.collections) if keep_records else None
    return result.summary, records, elapsed


class ParallelRunner:
    """Runs (spec, seed) grids across worker processes with caching.

    Args:
        jobs: Worker processes; ``None`` uses ``os.cpu_count()``; ``1``
            runs everything in-process (the deterministic baseline path).
        cache: A :class:`ResultCache`, a directory path to open one in, or
            ``None`` to disable caching.
        progress: Callback invoked once per settled run.
        retries: Extra attempts per run after the first one fails
            (exponential backoff between attempts). ``0`` fails fast.
        retry_backoff: Base backoff in seconds; attempt *n* waits
            ``retry_backoff * 2**(n-1)`` (capped, jittered) before
            retrying.
        retry_backoff_cap: Upper bound in seconds on any single backoff
            wait — keeps deep retry chains from doubling into minutes.
        run_timeout: Per-run wall-clock budget in seconds; a run exceeding
            it is treated as failed (and retried like any other failure).
            Enforced with a per-event monotonic-deadline check — portable
            across platforms and threads, no signals involved.
        faults: A :class:`~repro.faults.plan.FaultPlan` composed onto every
            spec in the batch that does not already carry one — the CLI's
            ``--faults`` plumbing. Fault plans are part of the cache
            fingerprint, so faulty and fault-free runs never share entries.
        trace_cache: A :class:`~repro.workload.trace_cache.TraceCache`, a
            directory path to open one in, or ``None`` to resolve traces
            the legacy way (regenerated per run). With a cache, each unique
            (workload, seed) trace in a batch is built once per sweep and
            replayed everywhere — in-process for serial runs, via pre-warmed
            on-disk compiled binaries for pooled runs.
        telemetry: A directory to write JSON-lines telemetry into, or
            ``None`` (the default) to disable observability entirely. When
            set, every simulated run writes one per-run file (GC timeline,
            metrics, summary — see :mod:`repro.obs.telemetry`) and each
            ``run_batch`` call writes one ``engine_NNN.jsonl`` file with
            batch-level spans, cache counters and failure events. Cache
            hits skip simulation and write no per-run file. Telemetry only
            observes: summaries and cache fingerprints are identical with
            it on or off.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: CacheLike = None,
        progress: Optional[ProgressCallback] = None,
        retries: int = 0,
        retry_backoff: float = 0.5,
        retry_backoff_cap: float = 30.0,
        run_timeout: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        trace_cache: TraceCacheLike = None,
        telemetry: Union[str, Path, None] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        if retry_backoff_cap <= 0:
            raise ValueError(
                f"retry_backoff_cap must be > 0, got {retry_backoff_cap}"
            )
        if run_timeout is not None and run_timeout <= 0:
            raise ValueError(f"run_timeout must be > 0, got {run_timeout}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = _as_cache(cache)
        self.progress = progress
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        self.run_timeout = run_timeout
        self.faults = faults
        self.trace_cache = _as_trace_cache(trace_cache)
        self.telemetry = Path(telemetry) if telemetry is not None else None

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(
        self,
        spec: ExperimentSpec,
        seeds: Sequence[int],
        keep_records: bool = False,
    ) -> AggregateResult:
        """Run one spec across several seeds and aggregate."""
        return self.run_batch([spec], seeds, keep_records=keep_records)[0]

    def run_batch(
        self,
        specs: Sequence[ExperimentSpec],
        seeds: Sequence[int],
        keep_records: bool = False,
    ) -> list[AggregateResult]:
        """Run several specs over the same seeds, fanning all runs out at once.

        Batching whole sweeps (every fraction × every seed) into one call
        keeps all workers busy even when a single setting has fewer seeds
        than there are cores. Results come back in spec order, each an
        :class:`AggregateResult` with per-setting cache/wall-time stats.

        The batch always completes: runs that fail after retries are
        quarantined into the setting's ``failures`` list and excluded from
        its aggregate statistics.
        """
        specs = list(specs)
        seeds = list(seeds)
        if not specs:
            return []
        if not seeds:
            raise ValueError("at least one seed is required")
        if self.faults is not None:
            specs = [
                spec if spec.faults is not None
                else dataclasses.replace(spec, faults=self.faults)
                for spec in specs
            ]

        tasks = [(si, seed) for si in range(len(specs)) for seed in seeds]
        outcomes: list[Union[_Success, _Failure, None]] = [None] * len(tasks)
        fingerprints: list[Optional[str]] = [None] * len(tasks)
        progress = _Progress(total=len(tasks))

        batch_tel, prev_cache_metrics = self._open_batch_telemetry(specs, seeds)
        batch_started = time.perf_counter()

        try:
            pending: list[int] = []
            for index, (si, seed) in enumerate(tasks):
                if self.cache is not None:
                    fingerprint = spec_fingerprint(specs[si], seed)
                    fingerprints[index] = fingerprint
                    hit = self.cache.get(fingerprint, want_records=keep_records)
                    if hit is not None:
                        outcomes[index] = _Success(
                            hit.summary, hit.records, cached=True, elapsed=0.0,
                            attempts=0,
                        )
                        self._emit(
                            progress, specs[si], seed, cached=True, wall_time=0.0
                        )
                        continue
                pending.append(index)

            tel_paths: Optional[list[Optional[str]]] = None
            if self.telemetry is not None:
                tel_paths = [None] * len(tasks)
                for index in pending:
                    si, seed = tasks[index]
                    label = specs[si].label or specs[si].policy.kind
                    tel_paths[index] = str(
                        run_telemetry_path(self.telemetry, index, label, seed)
                    )

            workers = min(self.jobs, len(pending))
            if workers > 1:
                try:
                    self._run_pooled(
                        specs, tasks, pending, fingerprints, outcomes,
                        keep_records, workers, progress, tel_paths,
                    )
                except BrokenProcessPool:
                    # The pool died under us (worker killed, interpreter
                    # mismatch, ...). Degrade gracefully: finish whatever is
                    # still unsettled on the in-process serial path.
                    remaining = [i for i in pending if outcomes[i] is None]
                    self._run_serial(
                        specs, tasks, remaining, fingerprints, outcomes,
                        keep_records, progress, tel_paths,
                    )
            else:
                self._run_serial(
                    specs, tasks, pending, fingerprints, outcomes,
                    keep_records, progress, tel_paths,
                )

            results = self._assemble(specs, seeds, tasks, outcomes, keep_records)
        finally:
            if batch_tel is not None and self.cache is not None:
                self.cache.metrics = prev_cache_metrics
        if batch_tel is not None:
            self._close_batch_telemetry(batch_tel, results, batch_started)
        return results

    # ------------------------------------------------------------------
    # Batch telemetry
    # ------------------------------------------------------------------

    def _open_batch_telemetry(self, specs, seeds):
        """Open the engine-level telemetry file for one batch, if enabled.

        Returns ``(telemetry, previous_cache_metrics)``; while the batch
        runs, the result cache counts hits/misses into the batch registry
        (restored by ``run_batch``'s finally clause).
        """
        if self.telemetry is None:
            return None, None
        root = self.telemetry
        root.mkdir(parents=True, exist_ok=True)
        sequence = sum(1 for _ in root.glob("engine_*.jsonl"))
        batch_tel = RunTelemetry(
            root / f"engine_{sequence:03d}.jsonl",
            kind="engine",
            label="batch",
            specs=len(specs),
            seeds=len(seeds),
            jobs=self.jobs,
            cache=self.cache is not None,
            trace_cache=self.trace_cache is not None,
        )
        prev_cache_metrics = None
        if self.cache is not None:
            prev_cache_metrics = self.cache.metrics
            self.cache.metrics = batch_tel.metrics
        return batch_tel, prev_cache_metrics

    def _close_batch_telemetry(self, batch_tel, results, started) -> None:
        """Record batch-level spans/metrics/events and write the file."""
        batch_tel.tracer.record("run_batch", time.perf_counter() - started)
        merged = RunStats()
        for aggregate in results:
            if aggregate.stats is not None:
                merged.merge(aggregate.stats)
            for failure in aggregate.failures:
                batch_tel.event(
                    "run_failed",
                    label=failure.label,
                    seed=failure.seed,
                    error=failure.error,
                    attempts=failure.attempts,
                )
        metrics = batch_tel.metrics
        metrics.gauge("engine.runs").set(merged.runs)
        metrics.gauge("engine.cache_hits").set(merged.cache_hits)
        metrics.gauge("engine.cache_misses").set(merged.cache_misses)
        metrics.gauge("engine.failures").set(merged.failures)
        metrics.gauge("engine.retries").set(merged.retries)
        metrics.gauge("engine.sim_wall_s").set(round(merged.wall_time, 6))
        metrics.gauge("engine.telemetry_files").set(len(merged.telemetry_paths))
        if self.trace_cache is not None:
            metrics.set_many(
                self.trace_cache.stats.as_metrics(), prefix="trace_cache."
            )
        if self.cache is not None:
            metrics.gauge("result_cache.quarantined_total").set(
                self.cache.quarantined
            )
        batch_tel.close()

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------

    def _backoff(self, attempt: int) -> None:
        """Sleep before retry ``attempt`` (1-based): capped, jittered.

        The uncapped exponential doubles into minutes within a dozen
        attempts; ``retry_backoff_cap`` bounds the wait. Full-half jitter
        (a uniform draw from ``[delay/2, delay)``) decorrelates retry
        storms when many runs fail at once. Wall-clock only — simulation
        results never depend on the sleep.
        """
        delay = min(
            self.retry_backoff * (2 ** (attempt - 1)), self.retry_backoff_cap
        )
        if delay > 0:
            time.sleep(delay * (0.5 + 0.5 * random.random()))

    def _run_serial(self, specs, tasks, pending, fingerprints, outcomes,
                    keep_records, progress, tel_paths=None):
        # Only pass trace_cache / telemetry_path when configured: the bare
        # call shape is a compatibility surface (tests and downstream code
        # substitute 4-argument _simulate doubles).
        base_extra = (
            {"trace_cache": self.trace_cache}
            if self.trace_cache is not None
            else {}
        )
        for index in pending:
            si, seed = tasks[index]
            extra = base_extra
            tel_path = tel_paths[index] if tel_paths is not None else None
            if tel_path is not None:
                extra = {**base_extra, "telemetry_path": tel_path}
            attempt = 0
            while True:
                attempt += 1
                try:
                    summary, records, elapsed = _simulate(
                        specs[si], seed, keep_records,
                        timeout=self.run_timeout, **extra,
                    )
                except Exception as exc:
                    if attempt <= self.retries:
                        self._backoff(attempt)
                        continue
                    self._fail(progress, index, specs[si], seed, exc, attempt,
                               outcomes)
                    break
                self._finish(progress, index, specs[si], seed, summary, records,
                             elapsed, attempt, fingerprints[index], outcomes,
                             telemetry=tel_path)
                break

    def _warm_traces(self, specs, tasks, pending, pool) -> None:
        """Materialise each unique (workload, seed) trace once per sweep.

        Fans one build task per cold unique trace over the pool before any
        simulation is submitted, so no two policy cells ever rebuild the
        same trace. Build errors are deliberately swallowed here — a
        genuinely broken workload fails (and is retried / quarantined)
        through the normal simulation path, with proper accounting.
        """
        unique: dict[str, tuple] = {}
        for index in pending:
            si, seed = tasks[index]
            try:
                key = trace_fingerprint(specs[si].workload, seed)
            except TypeError:
                continue  # uncacheable workload: builds per run, as before
            if key not in unique and key not in self.trace_cache:
                unique[key] = (specs[si].workload, seed)
        if not unique:
            return
        futures = [
            pool.submit(_worker_warm_trace, workload, seed)
            for workload, seed in unique.values()
        ]
        for future in futures:
            try:
                future.result()
            except BrokenProcessPool:
                raise
            except Exception:
                pass

    def _publish_shared_traces(self, specs, tasks, pending):
        """Map this batch's on-disk compiled traces into shared memory.

        Returns a :class:`~repro.workload.shm.SharedTraceArena` (or ``None``
        when nothing was publishable); the caller ships ``arena.plan()`` to
        the pool initializer and closes the arena once the pool is gone.

        Only traces already materialised on disk can be published — the
        plan travels in the pool's ``initargs``, which are fixed before the
        warm pass runs. Cold traces therefore load from disk this sweep and
        become shareable in the next one. Every failure here degrades to
        the disk path, never to an error.
        """
        cache = self.trace_cache
        arena = None
        seen: set = set()
        for index in pending:
            si, seed = tasks[index]
            try:
                key = trace_fingerprint(specs[si].workload, seed)
            except TypeError:
                continue  # uncacheable workload: never shared
            if key in seen:
                continue
            seen.add(key)
            path = cache.entry_path(key)
            if path is None:
                continue  # cold: the warm pass will build it, on disk only
            if arena is None:
                arena = SharedTraceArena()
            if arena.publish_file(key, path) is not None:
                cache.stats.shm_published += 1
        return arena

    def _run_pooled(self, specs, tasks, pending, fingerprints, outcomes,
                    keep_records, workers, progress, tel_paths=None):
        attempts = {index: 1 for index in pending}
        trace_root = (
            str(self.trace_cache.root)
            if self.trace_cache is not None and self.trace_cache.root is not None
            else None
        )
        arena = None
        shared_plan = None
        if trace_root is not None:
            arena = self._publish_shared_traces(specs, tasks, pending)
            if arena is not None and len(arena):
                shared_plan = arena.plan()
        try:
            self._run_pooled_inner(
                specs, tasks, pending, fingerprints, outcomes, keep_records,
                workers, progress, tel_paths, attempts, trace_root, shared_plan,
            )
        finally:
            if arena is not None:
                # Workers have exited (the pool context manager joins them),
                # so unlinking here frees the segments everywhere.
                arena.close()

    def _run_pooled_inner(self, specs, tasks, pending, fingerprints, outcomes,
                          keep_records, workers, progress, tel_paths, attempts,
                          trace_root, shared_plan):
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(trace_root, shared_plan),
        ) as pool:
            if self.trace_cache is not None and self.trace_cache.root is not None:
                self._warm_traces(specs, tasks, pending, pool)

            def submit(index):
                si, seed = tasks[index]
                args = (specs[si], seed, keep_records, self.run_timeout)
                tel_path = tel_paths[index] if tel_paths is not None else None
                if tel_path is not None:
                    # Appended only when set — monkeypatched 4-argument
                    # _worker_simulate doubles keep working otherwise.
                    args = args + (tel_path,)
                return pool.submit(_worker_simulate, *args)

            futures = {submit(index): index for index in pending}
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures.pop(future)
                    si, seed = tasks[index]
                    try:
                        summary, records, elapsed = future.result()
                    except BrokenProcessPool:
                        raise  # pool is dead; outer handler goes serial
                    except Exception as exc:
                        if attempts[index] <= self.retries:
                            self._backoff(attempts[index])
                            attempts[index] += 1
                            futures[submit(index)] = index
                            continue
                        self._fail(progress, index, specs[si], seed, exc,
                                   attempts[index], outcomes)
                        continue
                    self._finish(progress, index, specs[si], seed, summary,
                                 records, elapsed, attempts[index],
                                 fingerprints[index], outcomes,
                                 telemetry=(
                                     tel_paths[index]
                                     if tel_paths is not None
                                     else None
                                 ))

    # ------------------------------------------------------------------
    # Settling
    # ------------------------------------------------------------------

    def _finish(self, progress, index, spec, seed, summary, records, elapsed,
                attempts, fingerprint, outcomes, telemetry=None):
        outcomes[index] = _Success(
            summary, records, cached=False, elapsed=elapsed, attempts=attempts,
            telemetry=telemetry,
        )
        if self.cache is not None and fingerprint is not None:
            self.cache.put(fingerprint, summary, records)
        self._emit(progress, spec, seed, cached=False, wall_time=elapsed)

    def _fail(self, progress, index, spec, seed, exc, attempts, outcomes):
        outcomes[index] = _Failure(error=repr(exc), attempts=attempts)
        self._emit(progress, spec, seed, cached=False, wall_time=0.0,
                   failed=True, error=repr(exc))

    def _emit(self, progress, spec, seed, cached, wall_time,
              failed=False, error=None):
        progress.completed += 1
        if self.progress is None:
            return
        self.progress(
            SeedOutcome(
                label=spec.label or spec.policy.kind,
                seed=seed,
                cached=cached,
                wall_time=wall_time,
                completed=progress.completed,
                total=progress.total,
                failed=failed,
                error=error,
            )
        )

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    @staticmethod
    def _assemble(specs, seeds, tasks, outcomes, keep_records):
        results = []
        for si, spec in enumerate(specs):
            stats = RunStats()
            aggregate = AggregateResult(summaries=[], stats=stats)
            for j, seed in enumerate(seeds):
                outcome = outcomes[si * len(seeds) + j]
                if isinstance(outcome, _Failure):
                    stats.failures += 1
                    stats.retries += outcome.attempts - 1
                    aggregate.failures.append(
                        RunFailure(
                            label=spec.label or spec.policy.kind,
                            seed=seed,
                            error=outcome.error,
                            attempts=outcome.attempts,
                        )
                    )
                    continue
                aggregate.summaries.append(outcome.summary)
                if keep_records:
                    aggregate.records.append(outcome.records or [])
                if outcome.cached:
                    stats.cache_hits += 1
                else:
                    stats.cache_misses += 1
                    stats.retries += outcome.attempts - 1
                if outcome.telemetry is not None:
                    stats.telemetry_paths.append(outcome.telemetry)
                stats.wall_time += outcome.elapsed
            results.append(aggregate)
        return results


def run_experiment(
    spec: ExperimentSpec,
    *,
    seeds: Sequence[int],
    jobs: Optional[int] = None,
    cache: CacheLike = None,
    progress: Optional[ProgressCallback] = None,
    keep_records: bool = False,
    retries: int = 0,
    retry_backoff: float = 0.5,
    retry_backoff_cap: float = 30.0,
    run_timeout: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    trace_cache: TraceCacheLike = None,
    telemetry: Union[str, Path, None] = None,
) -> AggregateResult:
    """Run one experimental setting across seeds, in parallel, with caching.

    The declarative counterpart of :func:`repro.sim.runner.run_seeds`:
    ``spec`` names everything by registry key, so runs can execute in worker
    processes (``jobs``; ``None`` = all cores, ``1`` = in-process) and be
    memoised in ``cache``. ``keep_records=True`` additionally returns each
    run's per-collection records (Figures 6/7 need them). ``retries``,
    ``run_timeout`` and ``faults`` configure the failure-tolerance layer,
    ``trace_cache`` memoises compiled workload traces across runs, and
    ``telemetry`` names a directory for per-run JSON-lines observability —
    see :class:`ParallelRunner`.
    """
    runner = ParallelRunner(
        jobs=jobs, cache=cache, progress=progress, retries=retries,
        retry_backoff=retry_backoff, retry_backoff_cap=retry_backoff_cap,
        run_timeout=run_timeout, faults=faults,
        trace_cache=trace_cache, telemetry=telemetry,
    )
    return runner.run(spec, seeds, keep_records=keep_records)


def run_experiment_batch(
    specs: Sequence[ExperimentSpec],
    *,
    seeds: Sequence[int],
    jobs: Optional[int] = None,
    cache: CacheLike = None,
    progress: Optional[ProgressCallback] = None,
    keep_records: bool = False,
    retries: int = 0,
    retry_backoff: float = 0.5,
    retry_backoff_cap: float = 30.0,
    run_timeout: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    trace_cache: TraceCacheLike = None,
    telemetry: Union[str, Path, None] = None,
) -> list[AggregateResult]:
    """Run several settings over the same seeds in one parallel fan-out."""
    runner = ParallelRunner(
        jobs=jobs, cache=cache, progress=progress, retries=retries,
        retry_backoff=retry_backoff, retry_backoff_cap=retry_backoff_cap,
        run_timeout=run_timeout, faults=faults,
        trace_cache=trace_cache, telemetry=telemetry,
    )
    return runner.run_batch(specs, seeds, keep_records=keep_records)
