"""Command-line experiment runner: ``python -m repro`` / ``repro-experiments``.

Examples::

    repro-experiments list
    repro-experiments figure4
    repro-experiments figure5 --seeds 0 1 2 3 --out results/figure5.txt
    repro-experiments figure8 --jobs 4 --progress
    repro-experiments all --out-dir results/
    repro-experiments figure4 --no-cache
    REPRO_FULL=1 repro-experiments figure8

Each experiment prints the same tables/plots the benchmark harness writes
into ``results/``. The set of experiments comes from
:mod:`repro.experiments.registry` — ``list`` enumerates it.

Simulation runs fan out over ``--jobs`` worker processes (default: one per
CPU) and are memoised in a content-addressed on-disk cache (default
``.repro-cache/``, override with ``--cache-dir`` or ``REPRO_CACHE_DIR``,
disable with ``--no-cache``); a repeated invocation answers every run from
the cache without simulating. ``--progress`` reports each completed run on
stderr.

Workload traces are likewise compiled and cached (default
``<cache-dir>/traces``, override with ``--trace-cache-dir`` or
``REPRO_TRACE_CACHE_DIR``; ``--no-trace-cache`` is memo-only, writes
nothing), so each unique (workload, seed) trace is built once per sweep
instead of once per policy cell. ``--profile`` wraps the experiment in
cProfile and prints the hottest functions. Performance is measured by the
repo benchmark, ``bench/run.py`` (see ``bench/README.md``), not by this CLI.

Failure tolerance: ``--retries N`` re-attempts a failing run with
exponential backoff, ``--run-timeout S`` bounds each run's wall clock, and
``--faults plan.json`` injects a deterministic
:class:`~repro.faults.plan.FaultPlan` into every run. Runs that still fail
are quarantined into the per-setting statistics (the batch always
completes with partial results).

``python -m repro fleet`` sweeps grammar-driven multi-tenant scenario
grids — (grammar × tenants × seeds × policies) — through the same engine
and caches (see :mod:`repro.fleet`).

``python -m repro serve`` runs the simulator as a long-lived service over
an unbounded workload stream — periodic WAL checkpoints with redo-log
truncation, backpressure under a heap bound, graceful SIGTERM drain — and
``serve --soak`` runs crash-soak drills against it (see
:mod:`repro.service.cli`).

``python -m repro train`` fits the learned garbage estimator
(:mod:`repro.gc.learned`) from recorded telemetry GC timelines, and
``python -m repro tournament`` ranks fixed/SAIO/SAGA/learned policies
across a scenario grid, reporting per-estimator error alongside
end-to-end I/O (see :mod:`repro.experiments.tournament`).

Observability: ``--telemetry DIR`` writes one JSON-lines telemetry file
per simulated run (per-collection GC timeline, metrics snapshot, phase
spans) plus one engine-level file per batch; ``python -m repro metrics
DIR`` pretty-prints and aggregates them. Telemetry only observes — results
and cache fingerprints are identical with it on or off.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.registry import (
    Experiment,
    FailedReport,
    get_experiment,
    iter_experiments,
)
from repro.faults.plan import load_fault_plan
from repro.sim.cache import ResultCache
from repro.sim.engine import RunOptions, SeedOutcome
from repro.workload.trace_cache import TraceCache

#: Name → experiment, registry-driven (kept as a module attribute because
#: programmatic callers and the tests introspect it).
EXPERIMENTS: dict[str, Experiment] = {
    exp.name: exp for exp in iter_experiments()
}

DEFAULT_CACHE_DIR = ".repro-cache"


class _ProgressReporter:
    """Tallies cache hits/misses/failures; optionally narrates to stderr."""

    def __init__(self, verbose: bool = False, stream=None):
        self.verbose = verbose
        self.stream = stream if stream is not None else sys.stderr
        self.hits = 0
        self.misses = 0
        self.failures = 0

    def __call__(self, outcome: SeedOutcome) -> None:
        if outcome.failed:
            self.failures += 1
        elif outcome.cached:
            self.hits += 1
        else:
            self.misses += 1
        if self.verbose:
            label = outcome.label or "run"
            if outcome.failed:
                source = f"FAILED: {outcome.error}"
            elif outcome.cached:
                source = "cache"
            else:
                source = f"{outcome.wall_time:.2f}s"
            print(
                f"  [{outcome.completed}/{outcome.total}] {label} "
                f"seed={outcome.seed} ({source})",
                file=self.stream,
            )

    def summary(self) -> str:
        total = self.hits + self.misses + self.failures
        if not total:
            return ""
        parts = f"; {total} runs: {self.hits} cached, {self.misses} simulated"
        if self.failures:
            parts += f", {self.failures} FAILED"
        return parts


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(raw: str) -> float:
    value = float(raw)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


#: Every engine flag, defined once: flag → ``add_argument`` keywords. Each
#: command offers the subset it names to :func:`add_engine_flags`, and
#: :func:`run_options` turns whatever was parsed into one ``RunOptions``.
_ENGINE_FLAGS: dict[str, dict] = {
    "--jobs": dict(
        type=positive_int,
        default=None,
        help=(
            "worker processes for simulation fan-out "
            "(default: one per CPU; 1 = run in-process)"
        ),
    ),
    "--cache-dir": dict(
        type=Path,
        default=None,
        help=(
            "directory for the on-disk result cache "
            f"(default: $REPRO_CACHE_DIR or {DEFAULT_CACHE_DIR!r})"
        ),
    ),
    "--no-cache": dict(
        action="store_true",
        help="disable the result cache (every run simulates)",
    ),
    "--trace-cache-dir": dict(
        type=Path,
        default=None,
        help=(
            "directory for compiled workload traces (default: "
            "$REPRO_TRACE_CACHE_DIR or <cache-dir>/traces)"
        ),
    ),
    "--no-trace-cache": dict(
        action="store_true",
        help="memo-only trace cache: writes nothing, builds each trace once per process",
    ),
    "--progress": dict(
        action="store_true",
        help="print one line per completed simulation run (stderr)",
    ),
    "--retries": dict(
        type=nonnegative_int,
        default=0,
        help="extra attempts per failing run, with exponential backoff",
    ),
    "--run-timeout": dict(
        type=positive_float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock budget; a run exceeding it counts as failed",
    ),
    "--faults": dict(
        type=Path,
        default=None,
        metavar="PLAN.JSON",
        help="inject the deterministic FaultPlan in this JSON file into every run",
    ),
    "--telemetry": dict(
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "write JSON-lines telemetry (per-run GC timelines, metrics, "
            "spans) into this directory; inspect with 'python -m repro "
            "metrics DIR'. Telemetry never changes results."
        ),
    ),
}

#: The engine flags every command offers, in this order.
COMMON_ENGINE_FLAGS = ("--jobs", "--cache-dir", "--no-cache", "--trace-cache-dir", "--no-trace-cache")


def add_engine_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Add the named engine flags to ``parser``, in the order given."""
    for flag in flags:
        parser.add_argument(flag, **_ENGINE_FLAGS[flag])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of Cook, Klauser, Zorn & Wolf "
            "(SIGMOD 1996). Set REPRO_FULL=1 for paper-scale grids."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help="experiment to run, 'all' for every one, or 'list' to enumerate",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="explicit seed list (default: 3 seeds, or 10 with REPRO_FULL=1)",
    )
    add_engine_flags(parser, *COMMON_ENGINE_FLAGS)
    parser.add_argument(
        "--profile",
        nargs="?",
        const="",
        default=None,
        metavar="STATS_FILE",
        help=(
            "profile the experiment with cProfile; print the hottest "
            "functions to stderr and optionally dump pstats to STATS_FILE"
        ),
    )
    add_engine_flags(
        parser, "--progress", "--retries", "--run-timeout", "--faults", "--telemetry"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the report to this file",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        help="with 'all': write one report file per experiment here",
    )
    return parser


def _resolve_cache(args) -> Optional[ResultCache]:
    if args.no_cache:
        return None
    root = args.cache_dir
    if root is None:
        root = Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))
    return ResultCache(root)


def _resolve_trace_cache(args) -> TraceCache:
    """Resolve the compiled-trace cache from flags and environment.

    ``--no-trace-cache`` is memo-only and writes nothing: each unique
    trace is built once per process.
    """
    if args.no_trace_cache:
        return TraceCache(None)
    root = args.trace_cache_dir
    if root is None:
        env = os.environ.get("REPRO_TRACE_CACHE_DIR")
        if env:
            root = Path(env)
        else:
            cache_root = args.cache_dir
            if cache_root is None:
                cache_root = Path(
                    os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
                )
            root = Path(cache_root) / "traces"
    return TraceCache(root)


def run_options(args: argparse.Namespace) -> RunOptions:
    """The engine settings a command's parsed engine flags ask for.

    Resolves the caches, opens a fresh progress tally and loads the fault
    plan; a flag the command does not offer leaves its setting at the
    :class:`RunOptions` default.
    """
    parsed = vars(args)
    faults = parsed.get("faults")
    return RunOptions(
        jobs=args.jobs,
        cache=_resolve_cache(args),
        progress=_ProgressReporter(verbose=args.progress),
        faults=load_fault_plan(faults) if faults is not None else None,
        trace_cache=_resolve_trace_cache(args),
        **{
            name: parsed[name]
            for name in ("retries", "run_timeout", "telemetry")
            if name in parsed
        },
    )


def _run_named(
    name: str, seeds: Optional[list[int]], options: RunOptions
) -> tuple[str, bool]:
    """Run one experiment: its footed report, and False when the
    experiment failed its own acceptance check."""
    exp = get_experiment(name)
    reporter = options.progress
    started = time.time()
    report = exp.run(seeds, options)
    elapsed = time.time() - started
    stats = (
        reporter.summary() if isinstance(reporter, _ProgressReporter) else ""
    )
    text = f"{report}\n\n[{name} completed in {elapsed:.1f}s{stats}]\n"
    return text, not isinstance(report, FailedReport)


def _profiled(callable_, stats_file: str):
    """Run ``callable_`` under cProfile; report the hottest functions."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(callable_)
    finally:
        profiler.create_stats()
        if stats_file:
            profiler.dump_stats(stats_file)
            print(f"[profile stats written to {stats_file}]", file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    if raw and raw[0] == "metrics":
        from repro.obs.report import main as metrics_main

        return metrics_main(raw[1:])
    if raw and raw[0] == "fleet":
        from repro.fleet import main as fleet_main

        return fleet_main(raw[1:])
    if raw and raw[0] == "serve":
        from repro.service.cli import main as serve_main

        return serve_main(raw[1:])
    if raw and raw[0] == "train":
        from repro.train import main as train_main

        return train_main(raw[1:])
    if raw and raw[0] == "tournament":
        from repro.experiments.tournament import main as tournament_main

        return tournament_main(raw[1:])

    args = _build_parser().parse_args(raw)

    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for exp in iter_experiments():
            print(f"{exp.name.ljust(width)}  {exp.description}")
        return 0

    shared = run_options(args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    all_ok = True
    for name in names:
        # One progress tally per experiment, so each footer counts its own runs.
        options = dataclasses.replace(
            shared, progress=_ProgressReporter(verbose=args.progress)
        )
        if args.profile is not None:
            report, ok = _profiled(
                lambda: _run_named(name, args.seeds, options), args.profile
            )
        else:
            report, ok = _run_named(name, args.seeds, options)
        all_ok = all_ok and ok
        print(report)
        target = None
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            target = args.out_dir / f"{name}.txt"
        elif args.out is not None:
            target = args.out
        if target is not None:
            target.write_text(report)
            print(f"[written to {target}]", file=sys.stderr)
    if args.telemetry is not None:
        print(
            f"[telemetry in {args.telemetry}; inspect with "
            f"'python -m repro metrics {args.telemetry}']",
            file=sys.stderr,
        )
    return 0 if all_ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(main())
