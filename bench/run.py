"""The repo benchmark: five workloads, nine end-to-end metrics, a layer ledger.

Two ways in:

* ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`` —
  one measuring run of one workload. The last line of standard output is
  one JSON object (``correct``/``attempted``/``failed``/``metrics``) holding
  every end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``). This is the form ``BENCHMARK.json`` names.
* ``python3 bench/run.py [--seed N] [--reps R]`` — the whole set: every
  workload ``R`` times in fresh subprocesses, round-robin so machine drift
  decorrelates, plus one traced rep each; prints every metric by name and
  unit and writes ``bench/out/results_seed<N>.json`` for ``compare.py``.

A run sets up its inputs from the seed, repeats identical *rounds* of the
workload's cells for ``--seconds``, checks the outputs, and reports medians
over rounds. See ``bench/README.md`` for definitions.
"""

import time

_STARTED = time.perf_counter()  # setup_s counts from the first statement

import argparse
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MANIFEST = ROOT / "BENCHMARK.json"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit("bench: src/repro not found next to bench/ - nothing to measure")
sys.path.insert(0, str(ROOT / "src"))

from metrics import END_TO_END, LAYERS, PER_LAYER  # noqa: E402
from probe import (  # noqa: E402
    TracedStream,
    Tracer,
    high_percentile,
    install_layer_spans,
    install_pause_probe,
    layer_of,
    percentile,
)
from workloads import SCALES, WORKLOADS, CellOut, same  # noqa: E402

#: Distinct collections a round needs for p95 to have ten samples beyond it.
MIN_COLLECTIONS = 200
#: Rounds a run needs before a median over rounds means anything.
MIN_ROUNDS = 3
#: Fresh-interpreter set-ups timed per run, besides the run's own.
SETUP_CHILDREN = 4

# ----------------------------------------------------------------------
# Machine-speed reference
# ----------------------------------------------------------------------

#: One reference-kernel reading on the quiet reference box, in seconds.
REFERENCE_KERNEL_S = 0.0200


class ReferenceKernel:
    """A fixed dependent pointer chase whose time tracks the machine's speed.

    The sandbox's speed drifts by tens of percent over seconds (shared
    cache and memory contention from neighbours, not CPU steal), which no
    in-run median removes. The chase is latency-bound like the simulator's
    own dict and list walks, so its time tracks that drift. The table is a
    full-cycle permutation of ``range(2**20)`` (an LCG step table); every
    reading walks the same 60 000 slots from slot 0, right after a cell has
    pushed them out of the near caches. One reading per cell boundary:
    repeating it back to back would time a warm cache, which tracked the
    drift worse than no scaling at all when tried.
    """

    BITS = 20
    STEPS = 60_000

    def __init__(self) -> None:
        mask = (1 << self.BITS) - 1
        self.chain = [(i * 1664525 + 1013904223) & mask for i in range(1 << self.BITS)]

    def reading(self) -> float:
        chain, j = self.chain, 0
        started = time.perf_counter()
        for _ in range(self.STEPS):
            j = chain[j]
        return time.perf_counter() - started


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------


@dataclass
class Cell:
    """One timed cell: raw timings plus the speed factor that scales them."""

    #: What the cell produced, without its live simulation.
    out: CellOut
    wall: float
    #: Reference-kernel time around the cell / REFERENCE_KERNEL_S.
    speed: float
    pauses: list[float]
    checkpoints: list[float]
    #: ``sim_counts`` of the cell's simulation (traced rounds only).
    counts: dict
    #: The cell's spans are ``[span_lo, span_hi)`` of the tracer.
    span_lo: int
    span_hi: int


def sim_counts(sim) -> dict:
    """Public counters of one finished simulation."""
    store, collector = sim.store, sim.collector
    return {
        "buffer_hits": store.buffer.stats.hits,
        "buffer_accesses": store.buffer.stats.accesses,
        "live_bytes": store.live_bytes,
        "db_bytes": store.db_size,
        "traced_objects": collector.traced_objects_total,
        "heap_objects": collector.heap_objects_total,
    }


class Measurement:
    """Runs rounds of one workload and keeps what the metrics need."""

    def __init__(
        self, workload, inputs: dict, kernel: ReferenceKernel, scratch_root: Path
    ) -> None:
        self.workload = workload
        self.inputs = inputs
        self.kernel = kernel
        self.scratch_root = scratch_root
        self.rounds: list[list[Cell]] = []
        self.last: CellOut | None = None
        #: Set by the traced rep's ``Simulation.run`` hook (engine cells).
        self.hooked_sim = None
        self._scratch_serial = 0

    def scratch(self) -> Path:
        self._scratch_serial += 1
        path = self.scratch_root / f"cell{self._scratch_serial}"
        path.mkdir(parents=True)
        return path

    def run_round(self, tracer: Tracer, traced: bool) -> None:
        cells = []
        reading = self.kernel.reading()
        for index in range(self.workload.cell_count(self.inputs)):
            self.last = None  # free the previous cell's store before this one
            scratch = self.scratch()
            lo = tracer.mark()
            started = time.perf_counter()
            if traced:
                with tracer.span("bench.cell"):
                    out = self.workload.run_cell(self.inputs, index, scratch)
            else:
                out = self.workload.run_cell(self.inputs, index, scratch)
            wall = time.perf_counter() - started
            hi = tracer.mark()
            reading_after = self.kernel.reading()
            shutil.rmtree(scratch)
            sim = out.sim if out.sim is not None else self.hooked_sim
            self.hooked_sim = None
            cells.append(
                Cell(
                    out=replace(out, sim=None),
                    wall=wall,
                    speed=(reading + reading_after) / 2.0 / REFERENCE_KERNEL_S,
                    pauses=tracer.durations("gc.collect", lo, hi),
                    checkpoints=tracer.durations("service.checkpoint", lo, hi),
                    counts=sim_counts(sim) if traced and sim is not None else {},
                    span_lo=lo,
                    span_hi=hi,
                )
            )
            reading = reading_after
            self.last = out
            del out, sim  # only self.last may keep a store alive into the next cell
        self.rounds.append(cells)

    def collection_windows(self) -> list[float]:
        """One window per distinct collection of a round: the median of its repeats.

        Rounds are identical, so collection *k* of every round does the same
        work; taking its median over rounds drops the jitter of single
        windows and leaves the program's own pause distribution.
        """
        per_round = [[p for cell in cells for p in cell.pauses] for cells in self.rounds]
        if len({len(windows) for windows in per_round}) != 1:
            return per_round[0]  # flagged by mismatched_cells: summaries differ too
        return [statistics.median(repeats) for repeats in zip(*per_round)]

    def mismatched_cells(self) -> list[int]:
        """Cell indices whose summary differs between rounds."""
        return [
            index
            for index, repeats in enumerate(zip(*self.rounds))
            if any(not same(cell.out.summary, repeats[0].out.summary) for cell in repeats[1:])
        ]

    def summary_digest(self) -> str:
        blob = b"".join(pickle.dumps(cell.out.summary) for cell in self.rounds[0])
        return hashlib.sha256(blob).hexdigest()


def simulated_trade(cells: list[Cell]) -> tuple[float, float]:
    """The paper's time/space pair over one round: GC I/O % and space amplification."""
    gc_io = [cell.out.summary.gc_io_fraction * 100.0 for cell in cells]
    amp = [1.0 / (1.0 - cell.out.summary.garbage_fraction_mean) for cell in cells]
    return statistics.fmean(gc_io), statistics.fmean(amp)


def run_speed(rounds: list[list[Cell]]) -> float:
    """The run's speed factor: median reference-kernel reading over its cells."""
    return statistics.median(cell.speed for cells in rounds for cell in cells)


def end_to_end(measure: Measurement, setup_s: float, scaled: bool = True) -> dict[str, float]:
    """The nine user-visible metrics of one run.

    Every timing is divided by the run's speed factor (``scaled``); memory
    and the simulated pair are as measured.
    """
    rounds = measure.rounds
    events = sum(cell.out.applied for cell in rounds[0])
    speed = run_speed(rounds) if scaled else 1.0
    # A cell repeats identically in every round: take each cell's median
    # over its repeats, then add the cells up.
    wall_s = sum(
        statistics.median(cell.wall for cell in repeats) for repeats in zip(*rounds)
    ) / speed
    stall_s = sum(
        statistics.median(sum(cell.pauses) + sum(cell.checkpoints) for cell in repeats)
        for repeats in zip(*rounds)
    ) / speed
    pauses = sorted(window / speed for window in measure.collection_windows())
    high = min(95.0, high_percentile(len(pauses)))  # below p95 only at smoke scale
    gc_io_pct, space_amp = simulated_trade(rounds[0])
    return {
        "setup_s": setup_s / speed,
        "wall_s": wall_s,
        "events_per_s": events / wall_s,
        "pause_p50_ms": percentile(pauses, 50.0) * 1e3,
        "pause_p95_ms": percentile(pauses, high) * 1e3,
        "stall_ms_per_kevent": stall_s * 1e3 / (events / 1e3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gc_io_pct": gc_io_pct,
        "space_amp": space_amp,
    }


# ----------------------------------------------------------------------
# The traced rep: per-layer metrics
# ----------------------------------------------------------------------


def per_layer(
    table: dict[str, dict], traced: list[Cell], untraced: list[Cell], extras: dict,
    schedulers: list, checkpoint_heaps: list[int],
) -> dict[str, float]:
    """Every per-layer metric from one traced round (0 where a layer is idle).

    ``table`` is ``Tracer.by_name`` over the traced round's spans.
    """
    out = {metric.name: 0.0 for metric in PER_LAYER}

    def total(name: str, key: str = "self_s") -> float:
        return table[name][key] if name in table else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = total("bench.cell", "total_s")
    events = sum(cell.out.applied for cell in traced)
    for name, row in table.items():
        layer = layer_of(name)
        if layer in LAYERS:
            out[f"{layer}.self_s"] += row["self_s"]
    out["bench.residual_frac"] = ratio(total("bench.cell"), wall)
    out["bench.trace_overhead_frac"] = (wall / run_speed([traced])) / (
        sum(cell.wall for cell in untraced) / run_speed([untraced])
    ) - 1.0
    out["bench.traced_wall_s"] = wall
    out["bench.speed_factor"] = statistics.fmean(cell.speed for cell in traced)

    # workload
    stream = table.get("workload.stream_next")
    if stream:
        out["workload.stream_gen_s"] = stream["total_s"]
        out["workload.stream_events_per_s"] = ratio(stream["count"], stream["total_s"])
    trace_stats = [c.out.detail["trace_stats"] for c in traced if "trace_stats" in c.out.detail]
    out["workload.trace_cache_hit_rate"] = ratio(
        sum(s.resolutions - s.builds - s.uncacheable for s in trace_stats),
        sum(s.resolutions for s in trace_stats),
    )
    # sim
    out["sim.replay_s"] = total("sim.run")
    out["sim.replay_ns_per_event"] = ratio(out["sim.replay_s"] * 1e9, events)
    run_stats = [c.out.detail["stats"] for c in traced if "stats" in c.out.detail]
    out["sim.cache_hit_rate"] = ratio(
        sum(s.cache_hits for s in run_stats), sum(s.runs for s in run_stats)
    )
    # storage (simulated counts)
    summaries = [cell.out.summary for cell in traced]
    app_io = sum(s.app_io_total for s in summaries)
    gc_io = sum(s.gc_io_total for s in summaries)
    out["storage.app_io"] = app_io
    out["storage.gc_io"] = gc_io
    out["storage.gc_io_pct"] = ratio(gc_io * 100.0, app_io + gc_io)
    out["storage.garbage_pct_mean"] = statistics.fmean(
        s.garbage_fraction_mean * 100.0 for s in summaries
    )
    out["storage.final_db_bytes"] = sum(s.final_db_size for s in summaries)
    out["storage.partitions"] = sum(s.final_partitions for s in summaries)
    counts = [cell.counts for cell in traced if cell.counts]
    out["storage.buffer_hit_rate"] = ratio(
        sum(c["buffer_hits"] for c in counts), sum(c["buffer_accesses"] for c in counts)
    )
    out["storage.bytes_per_live_byte"] = ratio(
        sum(c["db_bytes"] for c in counts), sum(c["live_bytes"] for c in counts)
    )
    # gc: speed, then yield
    pauses = sorted(p for cell in traced for p in cell.pauses)
    collections = sum(s.collections for s in summaries)
    out["gc.collect_s"] = sum(pauses)
    out["gc.collections"] = collections
    out["gc.collections_per_s"] = ratio(len(pauses), sum(pauses))
    if pauses:
        out["gc.pause_p90_ms"] = percentile(pauses, 90.0) * 1e3
        out["gc.pause_p99_ms"] = percentile(pauses, 99.0) * 1e3
        out["gc.pause_max_ms"] = pauses[-1] * 1e3
    out["gc.prepare_s"] = total("gc.prepare", "total_s")
    out["gc.apply_s"] = total("gc.apply", "total_s")
    out["gc.select_s"] = total("gc.select", "total_s")
    out["gc.pump_s"] = total("gc.pump", "total_s")
    traced_objects = sum(c["traced_objects"] for c in counts)
    reclaimed = sum(s.total_reclaimed_bytes for s in summaries)
    out["gc.traced_objects_per_collection"] = ratio(traced_objects, collections)
    out["gc.traced_vs_heap"] = ratio(traced_objects, sum(c["heap_objects"] for c in counts))
    out["gc.reclaimed_bytes_per_gc_io"] = ratio(reclaimed, gc_io)
    out["gc.reclaimed_bytes_per_traced_object"] = ratio(reclaimed, traced_objects)
    out["gc.reclaimed_frac_of_generated"] = ratio(
        reclaimed, sum(s.total_garbage_generated for s in summaries)
    )
    spec = [scheduler.stats() for scheduler in schedulers]
    hits = sum(s["speculation_hits"] for s in spec)
    stale = sum(s["speculation_stale"] for s in spec)
    misses = sum(s["speculation_misses"] for s in spec)
    out["gc.spec_hit_rate"] = ratio(hits, hits + stale + misses)
    out["gc.spec_stale"] = stale
    out["gc.spec_traces_per_collection"] = ratio(
        sum(s["speculative_traces"] for s in spec), hits + stale + misses
    )
    # core
    out["core.policy_s"] = total("core.policy")
    out["core.estimator_s"] = total("core.estimator")
    out.update(goal_metrics(traced))
    # tx (scalar path only)
    out["tx.apply_s"] = sum(
        row["self_s"] for name, row in table.items()
        if layer_of(name) == "tx" and not name.startswith("tx.ckpt_")
    )
    out["tx.ckpt_s"] = sum(
        row["self_s"] for name, row in table.items() if name.startswith("tx.ckpt_")
    )
    reports = [c.out.detail["report"] for c in traced if "report" in c.out.detail]
    if reports:
        applied = sum(r.events_applied for r in reports)
        out["tx.wal_appends"] = sum(r.wal["records"] for r in reports)
        out["tx.wal_forces"] = sum(r.wal["forces"] for r in reports)
        out["tx.wal_pages_written"] = sum(r.wal["pages_written"] for r in reports)
        out["tx.wal_bytes_per_event"] = ratio(sum(r.wal["bytes_logged"] for r in reports), applied)
        out["tx.log_records_per_event"] = ratio(sum(r.log_appended_total for r in reports), applied)
        out["tx.ckpt_count"] = sum(r.checkpoints for r in reports)
        stalls = sorted(c for cell in traced for c in cell.checkpoints)
        out["tx.ckpt_stall_p50_ms"] = percentile(stalls, 50.0) * 1e3
        out["tx.ckpt_stall_max_ms"] = stalls[-1] * 1e3
        out["tx.ckpt_ms_per_mb_heap"] = ratio(sum(stalls) * 1e3, sum(checkpoint_heaps) / 1e6)
        out["service.loop_s"] = total("service.run") + total("service.checkpoint")
        out["service.shed_frac"] = ratio(
            sum(r.backpressure.shed_events for r in reports), sum(r.events_seen for r in reports)
        )
        out["service.forced_collections"] = sum(r.backpressure.forced_collections for r in reports)
        out["service.backpressure_engaged"] = sum(r.backpressure.engaged for r in reports)
        out["service.heap_peak_bytes"] = max(r.heap_peak_bytes for r in reports)
    unknown = set(extras) - set(out)
    if unknown:
        raise KeyError(f"extras name metrics missing from PER_LAYER: {sorted(unknown)}")
    out.update(extras)
    return out


def goal_metrics(cells: list[Cell]) -> dict[str, float]:
    """How well SAIO/SAGA cells held their requested goal (simulated)."""
    achieved = {"saio": [], "saga": []}
    errors = []
    for cell in cells:
        if cell.out.goal is None:
            continue
        kind, requested = cell.out.goal
        summary = cell.out.summary
        got = summary.gc_io_fraction if kind == "saio" else summary.garbage_fraction_mean
        achieved[kind].append(got * 100.0)
        errors.append(abs(got - requested) * 100.0)
    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    return {
        "core.saio_achieved_pct": mean(achieved["saio"]),
        "core.saga_achieved_pct": mean(achieved["saga"]),
        "core.goal_error_pp": mean(errors),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def child_setup_seconds(args) -> list[float]:
    """Set-up time of fresh interpreters running this same workload and seed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--scale", args.scale, "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_once(args) -> int:
    workload = WORKLOADS[args.workload]
    kernel = ReferenceKernel()
    inputs = workload.setup(args.seed, args.scale)
    own_setup = time.perf_counter() - _STARTED
    if args.setup_only:
        print(repr(own_setup))
        return 0

    scratch_root = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(scratch_root, ignore_errors=True)
    scratch_root.mkdir(parents=True)
    try:
        if args.trace:
            result, detail = traced_run(workload, inputs, kernel, scratch_root, args)
        else:
            result, detail = timed_run(workload, inputs, kernel, scratch_root, args, own_setup)
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)

    detail.update(workload=workload.name, seed=args.seed, scale=args.scale, trace=args.trace)
    (OUT / f"run_{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n"
    )
    for failure in detail["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"summary_digest {detail['summary_digest']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def settle(measure: Measurement, verdict, metrics: dict[str, float], table) -> tuple[dict, dict]:
    """Fold checks and metrics into the result line and the detail record."""
    failures = list(verdict.failures)
    rounds = measure.rounds
    failed = sum(cell.out.shed for cells in rounds for cell in cells)
    for index in measure.mismatched_cells():
        failures.append(f"{measure.workload.name}: cell {index} summary differs between rounds")
        failed += sum(cells[index].out.applied for cells in rounds)
    if verdict.failures:
        failed += sum(cell.out.applied for cell in rounds[-1])
    units = {metric.name: metric.unit for metric in table}
    result = {
        "correct": not failures,
        "attempted": sum(cell.out.offered for cells in rounds for cell in cells),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = {
        "failures": failures,
        "summary_digest": measure.summary_digest(),
        "rounds": len(rounds),
        "pause_n": len(measure.collection_windows()),
        "events_per_round": sum(cell.out.applied for cell in rounds[0]),
        "raw_wall_s": [[cell.wall for cell in cells] for cells in rounds],
        "speed_factor": [[cell.speed for cell in cells] for cells in rounds],
        "pauses_ms": [[p * 1e3 for cell in cells for p in cell.pauses] for cells in rounds],
        "checkpoints_ms": [
            [c * 1e3 for cell in cells for c in cell.checkpoints] for cells in rounds
        ],
        "metrics": metrics,
    }
    return result, detail


def timed_run(workload, inputs, kernel, scratch_root, args, own_setup: float):
    """An end-to-end run: pause probe only, rounds for ``--seconds``."""
    setup_s = statistics.median([own_setup, *child_setup_seconds(args)])
    tracer = Tracer()
    install_pause_probe(tracer)
    measure = Measurement(workload, inputs, kernel, scratch_root)
    began = time.perf_counter()
    try:
        while True:
            measure.run_round(tracer, traced=False)
            if len(measure.rounds) >= MIN_ROUNDS and time.perf_counter() - began >= args.seconds:
                break
    finally:
        tracer.uninstall()
    # Metrics first: the checks below allocate, and peak RSS is the window's.
    collections = len(measure.collection_windows())
    if args.scale == "standard" and collections < MIN_COLLECTIONS:
        raise SystemExit(
            f"bench: a round of {workload.name} has only {collections} collections; "
            f"p95 needs {MIN_COLLECTIONS}"
        )
    metrics = end_to_end(measure, setup_s)
    unscaled = end_to_end(measure, setup_s, scaled=False)
    verdict = workload.verify(
        inputs, [cell.out for cell in measure.rounds[0]], measure.last, measure.scratch()
    )
    result, detail = settle(measure, verdict, metrics, END_TO_END)
    detail["unscaled"] = unscaled
    return result, detail


def traced_run(workload, inputs, kernel, scratch_root, args):
    """One untraced round, then one with every layer boundary wrapped."""
    probe = Tracer()
    install_pause_probe(probe)
    measure = Measurement(workload, inputs, kernel, scratch_root)
    try:
        measure.run_round(probe, traced=False)
    finally:
        probe.uninstall()

    tracer = Tracer()
    schedulers: list = []
    checkpoint_heaps: list[int] = []

    def on_run(call_args, _result):
        measure.hooked_sim = call_args[0]

    def on_pump(call_args, _result):
        if not any(call_args[0] is seen for seen in schedulers):
            schedulers.append(call_args[0])

    def on_snapshot(call_args, _result):
        checkpoint_heaps.append(call_args[0].db_size)

    install_layer_spans(
        tracer, {"sim.run": on_run, "gc.pump": on_pump, "tx.ckpt_snapshot": on_snapshot}
    )
    if "stream" in inputs:
        inputs = dict(inputs, stream=TracedStream(inputs["stream"], tracer))
        measure.inputs = inputs
    try:
        measure.run_round(tracer, traced=True)
    finally:
        tracer.uninstall()
    untraced, traced = measure.rounds
    verdict = workload.verify(
        inputs, [cell.out for cell in untraced], measure.last, measure.scratch()
    )
    table = tracer.by_name(traced[0].span_lo, traced[-1].span_hi)
    metrics = per_layer(table, traced, untraced, verdict.extras, schedulers, checkpoint_heaps)
    result, detail = settle(measure, verdict, metrics, PER_LAYER)
    detail["trace_lines"] = tracer.write_jsonl(
        OUT / f"trace_{workload.name}.jsonl", traced[0].span_lo
    )
    detail["self_s_by_name"] = {name: row["self_s"] for name, row in table.items()}
    return result, detail


# ----------------------------------------------------------------------
# The whole set
# ----------------------------------------------------------------------


def run_child(name: str, seed: int, seconds: int, trace: int, scale: str) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench: {name} printed no result (exit {done.returncode})")
    return json.loads(lines[-1])


def run_set(seed: int, reps: int, seconds: int, scale: str) -> dict:
    """Every workload ``reps`` times round-robin, then one traced rep each."""
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for rep in range(reps):
        for name in WORKLOADS:
            print(f"[bench] rep {rep + 1}/{reps} {name}", file=sys.stderr)
            runs[name].append(run_child(name, seed, seconds, 0, scale))
    document = {
        "format": 1,
        "seed": seed,
        "reps": reps,
        "seconds": seconds,
        "scale": scale,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "workloads": {},
    }
    for name in WORKLOADS:
        print(f"[bench] traced rep {name}", file=sys.stderr)
        traced = run_child(name, seed, seconds, 1, scale)
        end = {}
        for metric in END_TO_END:
            values = [run["metrics"][metric.name]["value"] for run in runs[name]]
            end[metric.name] = {
                "unit": metric.unit,
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "values": values,
            }
        document["workloads"][name] = {
            "correct": all(run["correct"] for run in runs[name]) and traced["correct"],
            "attempted": sum(run["attempted"] for run in runs[name]),
            "failed": sum(run["failed"] for run in runs[name]),
            "end_to_end": end,
            "per_layer": {
                key: {"unit": entry["unit"], "value": entry["value"]}
                for key, entry in traced["metrics"].items()
            },
        }
    return document


def print_set(document: dict) -> None:
    for name, entry in document["workloads"].items():
        verdict = "correct" if entry["correct"] else "INCORRECT"
        print(f"{name}: {verdict}, {entry['failed']} of {entry['attempted']} events failed")
        for metric, row in entry["end_to_end"].items():
            print(
                f"  {metric:<32} {row['median']:>14.6g} {row['unit']:<6} "
                f"(min {row['min']:.6g}, max {row['max']:.6g})"
            )
        for metric, row in entry["per_layer"].items():
            print(f"  {metric:<32} {row['value']:>14.6g} {row['unit']}")


def calibration_spread(first: dict, second: dict) -> list[str]:
    """Timing metrics whose two back-to-back medians differ by more than their bound."""
    problems = []
    for name, entry in first["workloads"].items():
        for metric in END_TO_END:
            a = entry["end_to_end"][metric.name]["median"]
            b = second["workloads"][name]["end_to_end"][metric.name]["median"]
            spread = abs(a - b) / min(a, b)
            entry["end_to_end"][metric.name]["calibration_spread"] = spread
            limit = 0.0 if metric.exact else metric.bound
            if spread > limit:
                problems.append(
                    f"{name}.{metric.name}: {a:.6g} vs {b:.6g} "
                    f"({spread:.1%} apart, bound {limit:.0%})"
                )
    return problems


def run_suite(args) -> int:
    OUT.mkdir(exist_ok=True)
    document = run_set(args.seed, args.reps, args.seconds, args.scale)
    problems = []
    if args.calibrate:
        second = run_set(args.seed, args.reps, args.seconds, args.scale)
        problems = calibration_spread(document, second)
        document["calibration_problems"] = problems
    print_set(document)
    target = args.out or OUT / f"results_seed{args.seed}.json"
    Path(target).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"[written to {target}]", file=sys.stderr)
    for problem in problems:
        print(f"CALIBRATION: {problem}", file=sys.stderr)
    correct = all(entry["correct"] for entry in document["workloads"].values())
    return 0 if correct and not problems else 1


def main(argv=None) -> int:
    run_seconds = json.loads(MANIFEST.read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run this one workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=run_seconds, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="standard")
    parser.add_argument("--setup-only", action="store_true", help="print set-up seconds and exit")
    parser.add_argument("--reps", type=int, default=3, help="whole set: runs per workload")
    parser.add_argument("--out", help="whole set: results file")
    parser.add_argument(
        "--calibrate", action="store_true",
        help="whole set twice; fail if any timing median moves by more than its bound",
    )
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    return run_once(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
