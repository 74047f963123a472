"""``repro fleet`` — sweep (grammar × tenants × seeds × policies) grids.

The fleet driver is the front door to the grammar/tenant subsystem
(:mod:`repro.workload.grammar`, :mod:`repro.workload.tenants`): it builds a
grid of :class:`~repro.sim.spec.ExperimentSpec` cells — one per (policy,
scenario) pair, swept over the seed list — and fans the whole grid out
through the parallel engine with the result cache, the compiled-trace
cache and telemetry, exactly like the named paper
experiments. Reports are **byte-identical at any ``--jobs``** (timing and
cache accounting go to stderr only).

Scenarios come from either

* ``--profiles`` — bundled tenant profiles interleaved into one
  multi-tenant trace (``--shard`` runs each tenant on its own heap
  instead), or
* ``--config FILE`` — a JSON/TOML grammar :class:`WorkloadConfig` or a
  JSON :class:`TenantMixConfig` (detected by its ``tenants`` key).

Policies are compact ``kind:value`` strings (see :func:`parse_policy`).

Examples::

    python -m repro fleet --profiles oltp-churn bulk-load \
        --seeds 0 1 --policies fixed:60 saga:0.25 --telemetry tel/
    python -m repro fleet --config scenario.toml --policies saio:0.1
    python -m repro fleet --profiles oltp-churn read-browse --shard

``--expect-all-cached`` exits non-zero unless every run was answered from
the result cache — CI uses it to prove that a repeated grid is free.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.cli import (
    COMMON_ENGINE_FLAGS,
    add_engine_flags,
    nonnegative_int,
    positive_float,
    run_options,
)
from repro.gc.learned import ModelError, model_spec, parse_model_spec
from repro.sim.engine import AggregateResult, ParallelRunner, RunOptions
from repro.sim.metrics import SimulationSummary
from repro.sim.report import format_percent, format_table
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import ExperimentSpec, PolicySpec, WorkloadSpec
from repro.storage.heap import StoreConfig
from repro.workload.grammar import GrammarError, WorkloadConfig
from repro.workload.tenants import (
    TENANT_PROFILES,
    TenantMixConfig,
    tenant_mix,
)

#: Store geometry for fleet cells: smaller than the paper's so the bundled
#: profiles (hundreds of operations at default scale) still trigger
#: collections. Override via --pages/--partition-pages/--buffer-pages.
DEFAULT_PAGE_SIZE = 2048
DEFAULT_PARTITION_PAGES = 8
DEFAULT_BUFFER_PAGES = 8

_POLICY_FORMS = (
    "fixed:<overwrites_per_collection>",
    "allocation:<bytes_per_collection>",
    "saio:<io_fraction>",
    "saga:<garbage_fraction>[:<estimator>]",
)


def parse_policy(text: str) -> PolicySpec:
    """Parse a compact ``kind:value`` policy string into a :class:`PolicySpec`.

    Forms: ``fixed:60``, ``allocation:24576``, ``saio:0.1``,
    ``saga:0.25`` / ``saga:0.25:cgs-hb``. The saga estimator accepts any
    registered estimator name or ``learned:<model.json>`` (only the first
    colon splits, so model paths pass through intact).

    Raises:
        ValueError: on an unknown kind or malformed value, listing the
            accepted forms.
    """
    kind, _, rest = text.partition(":")
    try:
        if kind == "fixed":
            return PolicySpec("fixed", {"overwrites_per_collection": float(rest)})
        if kind == "allocation":
            return PolicySpec("allocation", {"bytes_per_collection": float(rest)})
        if kind == "saio":
            return PolicySpec("saio", {"io_fraction": float(rest)})
        if kind == "saga":
            fraction, _, estimator = rest.partition(":")
            kwargs: dict = {"garbage_fraction": float(fraction)}
            if estimator:
                kwargs["estimator"] = estimator
            return PolicySpec("saga", kwargs)
    except ValueError:
        pass  # malformed numeric value — report with the accepted forms
    raise ValueError(
        f"cannot parse policy {text!r}; accepted forms: "
        + ", ".join(_POLICY_FORMS)
    )


def resolve_estimators(
    policies: Sequence[PolicySpec], default: Optional[str] = None
) -> list[PolicySpec]:
    """Fill in the ``--estimator`` default and content-pin learned models.

    A saga cell naming ``learned:<path>`` without a hash pin is expanded
    to ``learned:<path>@<hash12>`` by reading the artifact — the result
    cache then fingerprints the model's *content*, so retraining at the
    same path can never be answered by stale cached results.

    Raises:
        ModelError: when a named model artifact is missing or corrupt.
    """
    resolved = []
    for policy in policies:
        if policy.kind == "saga":
            kwargs = dict(policy.kwargs)
            estimator = kwargs.get("estimator", default)
            if isinstance(estimator, str):
                if estimator.startswith("learned:"):
                    path, digest = parse_model_spec(estimator)
                    if digest is None:
                        estimator = model_spec(path)
                kwargs["estimator"] = estimator
            policy = PolicySpec("saga", kwargs)
        resolved.append(policy)
    return resolved


def load_scenario(path: Path) -> "WorkloadConfig | TenantMixConfig":
    """Load a scenario file: grammar config (JSON/TOML) or tenant mix (JSON)."""
    text = path.read_text()
    if path.suffix.lower() == ".toml":
        return WorkloadConfig.from_toml(text)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GrammarError(f"invalid JSON scenario {path}: {exc}") from None
    if isinstance(payload, dict) and "tenants" in payload:
        return TenantMixConfig.from_dict(payload)
    return WorkloadConfig.from_dict(payload)


def build_grid(
    scenario: "WorkloadConfig | TenantMixConfig",
    policies: Sequence[PolicySpec],
    *,
    shard: bool = False,
    sim: Optional[SimulationConfig] = None,
) -> list[ExperimentSpec]:
    """The grid: one :class:`ExperimentSpec` cell per (scenario, policy).

    An interleaved tenant mix is one scenario; ``--shard`` expands the mix
    into one scenario per tenant (its grammar config on its own heap).
    Cells are plain declarative specs, so the engine caches, fingerprints
    and fans them out exactly like the paper experiments.
    """
    if sim is None:
        sim = _default_sim_config()
    if isinstance(scenario, TenantMixConfig):
        if shard:
            workloads = [
                (f"{scenario.name}/{tenant.name}",
                 WorkloadSpec("grammar", {"config": tenant.config}))
                for tenant in scenario.tenants
            ]
        else:
            workloads = [
                (scenario.name, WorkloadSpec("tenant-mix", {"config": scenario}))
            ]
    else:
        if shard:
            raise GrammarError("--shard needs a tenant mix, not a single workload")
        workloads = [(scenario.name, WorkloadSpec("grammar", {"config": scenario}))]

    return [
        ExperimentSpec(
            policy=policy,
            workload=workload,
            sim=sim,
            label=f"{name} × {_policy_label(policy)}",
        )
        for name, workload in workloads
        for policy in policies
    ]


def _policy_label(policy: PolicySpec) -> str:
    values = ":".join(str(v) for v in policy.kwargs.values())
    return f"{policy.kind}:{values}" if values else policy.kind


def _default_sim_config(
    page_size: int = DEFAULT_PAGE_SIZE,
    partition_pages: int = DEFAULT_PARTITION_PAGES,
    buffer_pages: int = DEFAULT_BUFFER_PAGES,
    preamble: int = 0,
    replay: str = "auto",
) -> SimulationConfig:
    return SimulationConfig(
        store=StoreConfig(
            page_size=page_size,
            partition_pages=partition_pages,
            buffer_pages=buffer_pages,
        ),
        preamble_collections=preamble,
        replay=replay,
    )


def format_fleet_report(
    specs: Sequence[ExperimentSpec],
    results: Sequence[AggregateResult],
    seeds: Sequence[int],
    title: str = "Fleet sweep",
) -> str:
    """Deterministic grid report (identical at any ``--jobs``)."""
    rows = []
    for spec, result in zip(specs, results):
        rows.append(
            [
                spec.label,
                result.runs,
                f"{result.collections.mean:.1f}",
                format_percent(result.gc_io_fraction.mean),
                format_percent(result.garbage_fraction.mean),
                f"{result.total_reclaimed.mean / 1024:.0f}",
                len(result.failures),
            ]
        )
    table = format_table(
        ["cell", "runs", "collections", "gc io", "garbage", "reclaimed KB",
         "failed"],
        rows,
        title=title,
    )
    seed_line = f"seeds: {' '.join(str(s) for s in seeds)}"
    return f"{table}\n{seed_line}"


def format_summary_csv(
    specs: Sequence[ExperimentSpec],
    results: Sequence[AggregateResult],
    seeds: Sequence[int],
) -> str:
    """Per-run outcome table: one CSV row per (cell, seed).

    Every :class:`~repro.sim.metrics.SimulationSummary` field of every
    successful run, keyed by cell label, policy and seed — the raw
    time/space outcomes behind the aggregate report, ready for pandas /
    gnuplot. The engine appends summaries in seed order and quarantines
    failed runs into ``result.failures``, so zipping the surviving seeds
    with the summaries is exact; rows are therefore **byte-identical at
    any ``--jobs``**. Failed runs appear with an ``error`` column instead
    of outcome fields.
    """
    fields = [f.name for f in dataclasses.fields(SimulationSummary)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["cell", "policy", "seed", "error", *fields])
    for spec, result in zip(specs, results):
        failed = {failure.seed: failure for failure in result.failures}
        survivors = iter(result.summaries)
        for seed in seeds:
            failure = failed.get(seed)
            if failure is not None:
                writer.writerow(
                    [spec.label, _policy_label(spec.policy), seed,
                     failure.error] + [""] * len(fields)
                )
                continue
            summary = next(survivors)
            writer.writerow(
                [spec.label, _policy_label(spec.policy), seed, ""]
                + [getattr(summary, name) for name in fields]
            )
    return out.getvalue()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fleet",
        description=(
            "Sweep a (grammar × tenants × seeds × policies) scenario grid "
            "through the parallel experiment engine. Every run collects "
            "one way: the victim partition is traced and planned at "
            "wake-ups before the trigger, when the trace still holds, and "
            "inside the pause otherwise."
        ),
    )
    scenario = parser.add_mutually_exclusive_group()
    scenario.add_argument(
        "--profiles",
        nargs="+",
        metavar="NAME",
        default=None,
        help=(
            "bundled tenant profiles to interleave "
            f"(choose from {sorted(TENANT_PROFILES)}; repeats allowed)"
        ),
    )
    scenario.add_argument(
        "--config",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "scenario file: a grammar WorkloadConfig (.json/.toml) or a "
            "TenantMixConfig (.json with a 'tenants' key)"
        ),
    )
    parser.add_argument(
        "--scale",
        type=positive_float,
        default=0.5,
        help="operation-count multiplier for bundled profiles (default 0.5)",
    )
    parser.add_argument(
        "--weights",
        nargs="+",
        type=float,
        default=None,
        metavar="W",
        help="interleave weights, one per profile (default: uniform)",
    )
    parser.add_argument(
        "--shard",
        action="store_true",
        help="run each tenant on its own heap instead of interleaving",
    )
    parser.add_argument(
        "--policies",
        nargs="+",
        default=["fixed:20", "saga:0.15"],
        metavar="POLICY",
        help=(
            "policy cells: " + ", ".join(_POLICY_FORMS)
            + " (default: fixed:20 saga:0.15)"
        ),
    )
    parser.add_argument(
        "--estimator",
        default=None,
        metavar="NAME",
        help=(
            "default garbage estimator for saga policies that don't name "
            "one: a registered name (oracle, cgs-cb, cgs-hb, fgs-cb, "
            "fgs-hb) or learned:<model.json>; learned model paths are "
            "content-pinned into result-cache fingerprints automatically"
        ),
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0, 1],
        help="seed list (default: 0 1)",
    )
    parser.add_argument(
        "--preamble",
        type=nonnegative_int,
        default=0,
        help="cold-start collections excluded from statistics (default 0)",
    )
    add_engine_flags(
        parser,
        *COMMON_ENGINE_FLAGS,
        "--telemetry",
        "--progress",
        "--retries",
        "--run-timeout",
    )
    parser.add_argument(
        "--replay",
        choices=("auto", "scalar"),
        default="auto",
        help=(
            "replay interpreter: auto (fused kernels where eligible) or "
            "scalar (always the guarded per-event loop) — both produce "
            "identical reports; the replay choice is excluded from "
            "result-cache fingerprints"
        ),
    )
    parser.add_argument(
        "--summary-csv",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "write one CSV row of time/space outcomes per (cell, seed) — "
            "byte-identical at any --jobs"
        ),
    )
    parser.add_argument(
        "--expect-all-cached",
        action="store_true",
        help=(
            "exit with status 3 unless every run was answered from the "
            "result cache (CI uses this to assert cache reuse)"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the report to this file",
    )
    parser.add_argument(
        "--emit-scenario",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "write the resolved scenario config (JSON) and exit without "
            "simulating — the file replays the exact grid via --config"
        ),
    )
    return parser


def _resolve_scenario(args) -> "WorkloadConfig | TenantMixConfig":
    if args.config is not None:
        return load_scenario(args.config)
    profiles = args.profiles or ["oltp-churn", "read-browse"]
    return tenant_mix(profiles, scale=args.scale, weights=args.weights)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(
        list(argv) if argv is not None else sys.argv[1:]
    )

    try:
        scenario = _resolve_scenario(args)
        policies = resolve_estimators(
            [parse_policy(text) for text in args.policies],
            default=args.estimator,
        )
        specs = build_grid(
            scenario,
            policies,
            shard=args.shard,
            sim=_default_sim_config(
                preamble=args.preamble,
                replay=args.replay,
            ),
        )
    except (GrammarError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.emit_scenario is not None:
        args.emit_scenario.write_text(scenario.to_json() + "\n")
        print(f"[scenario written to {args.emit_scenario}]", file=sys.stderr)
        return 0

    options = run_options(args)
    reporter = options.progress
    started = time.time()
    results = ParallelRunner(options).run_batch(specs, args.seeds)
    elapsed = time.time() - started

    title = "Fleet sweep (sharded)" if args.shard else "Fleet sweep"
    report = format_fleet_report(specs, results, args.seeds, title=title)
    print(report)
    print(
        f"[{len(specs)} cells × {len(args.seeds)} seeds in "
        f"{elapsed:.1f}s{reporter.summary()}]",
        file=sys.stderr,
    )
    if args.out is not None:
        args.out.write_text(report + "\n")
        print(f"[written to {args.out}]", file=sys.stderr)
    if args.summary_csv is not None:
        args.summary_csv.write_text(
            format_summary_csv(specs, results, args.seeds)
        )
        print(f"[per-run summaries in {args.summary_csv}]", file=sys.stderr)
    if args.telemetry is not None:
        print(
            f"[telemetry in {args.telemetry}; inspect with "
            f"'python -m repro metrics {args.telemetry}']",
            file=sys.stderr,
        )

    if any(result.failures for result in results):
        return 1
    if args.expect_all_cached and reporter.misses > 0:
        print(
            f"error: expected every run cached, but {reporter.misses} "
            "simulated",
            file=sys.stderr,
        )
        return 3
    return 0


# ----------------------------------------------------------------------
# Registry demo (the `fleet-demo` experiment)
# ----------------------------------------------------------------------


def run_demo(seeds: Optional[list[int]], options: RunOptions = RunOptions()) -> str:
    """A small fixed grid for the experiment registry (`fleet-demo`).

    2 interleaved tenants × 2 policies over the given seeds — enough to
    demonstrate the grammar/tenant/fleet path end-to-end from
    ``repro-experiments`` without a long run.
    """
    scenario = tenant_mix(["oltp-churn", "read-browse"], scale=0.3)
    policies = [parse_policy("fixed:20"), parse_policy("saio:0.1")]
    specs = build_grid(scenario, policies)
    seeds = seeds if seeds else [0, 1]
    results = ParallelRunner(options).run_batch(specs, seeds)
    return format_fleet_report(specs, results, seeds, title="Fleet demo grid")


__all__ = [
    "build_grid",
    "format_fleet_report",
    "format_summary_csv",
    "load_scenario",
    "main",
    "parse_policy",
    "resolve_estimators",
    "run_demo",
]


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(main())
