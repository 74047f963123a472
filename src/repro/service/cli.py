"""``python -m repro serve`` — run the simulator as a long-lived service.

Two postures:

* **serve** (default): consume an unbounded (or ``--max-events``-bounded)
  workload stream at an optional target rate, checkpointing the redo log
  periodically and applying backpressure under the configured heap bound.
  SIGTERM/SIGINT drain the in-flight transaction, flush a final
  checkpoint, and print the service report.
* **soak** (``--soak --faults PLAN.json``): run the crash-soak drill —
  an uncrashed reference plus a fault-injected service that is killed,
  recovered from checkpoint + log suffix, and resumed at the exact stream
  index, ending with a byte-identity verdict. Exit status 0 only when the
  final state matches the reference and every post-checkpoint recovery
  replayed only the suffix.

Examples::

    python -m repro serve --workload oltp-churn --policy saga:0.3 \\
        --max-events 200000 --checkpoint-every 20000
    python -m repro serve --tenants oltp-churn,read-browse --soak \\
        --faults plan.json --max-events 100000 --telemetry soak.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.fleet import parse_policy
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.service.soak import run_soak_drill, soak_service
from repro.service.stream import grammar_stream, tenant_stream
from repro.sim.spec import build_policy
from repro.workload.tenants import TENANT_PROFILES, make_profile, tenant_mix


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the GC simulator as a long-lived service over an "
        "unbounded workload stream, with WAL checkpoints, bounded memory "
        "and crash-soak drills.",
    )
    workload = parser.add_argument_group("workload stream")
    workload.add_argument(
        "--workload",
        default="oltp-churn",
        metavar="PROFILE",
        help="single-tenant grammar profile: %(choices)s (default "
        "%(default)s)" % {
            "choices": ", ".join(sorted(TENANT_PROFILES)),
            "default": "oltp-churn",
        },
    )
    workload.add_argument(
        "--tenants",
        metavar="P1,P2,...",
        help="comma-separated tenant profiles merged into one multi-tenant "
        "stream (overrides --workload)",
    )
    workload.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (default %(default)s)",
    )
    workload.add_argument(
        "--seed", type=int, default=0,
        help="stream + policy seed (default %(default)s)",
    )
    workload.add_argument(
        "--max-live-clusters", type=int, default=512, metavar="N",
        help="streaming generator's live-cluster bound (default %(default)s)",
    )
    service = parser.add_argument_group("service knobs")
    service.add_argument(
        "--policy", default="saga:0.3", metavar="KIND:ARG",
        help="collection-rate policy, e.g. fixed:200, allocation:24576, "
        "saio:0.1, saga:0.3 (default %(default)s)",
    )
    service.add_argument(
        "--max-events", type=int, default=None, metavar="N",
        help="stop after N stream events (default: run until SIGTERM)",
    )
    service.add_argument(
        "--target-ops", type=float, default=None, metavar="RATE",
        help="pace the stream to RATE events/second wall-clock "
        "(default: unthrottled)",
    )
    service.add_argument(
        "--checkpoint-every", type=int, default=50_000, metavar="N",
        help="checkpoint cadence in applied events (default %(default)s)",
    )
    service.add_argument(
        "--max-log-records", type=int, default=None, metavar="N",
        help="checkpoint early when the redo-log suffix exceeds N records",
    )
    service.add_argument(
        "--max-heap-bytes", type=int, default=None, metavar="BYTES",
        help="hard bound on the modelled heap",
    )
    drill = parser.add_argument_group("soak drills")
    drill.add_argument(
        "--soak", action="store_true",
        help="run the crash-soak drill instead of plain serving "
        "(requires --faults and --max-events)",
    )
    drill.add_argument(
        "--faults", metavar="PLAN.json",
        help="fault plan file (FaultPlan JSON) injected into the drilled "
        "service",
    )
    drill.add_argument(
        "--max-crashes", type=int, default=64, metavar="N",
        help="abort the soak after N crashes (default %(default)s)",
    )
    out = parser.add_argument_group("output")
    out.add_argument(
        "--telemetry", metavar="FILE.jsonl",
        help="write JSON-lines telemetry (checkpoints, crashes, "
        "service.* metrics); inspect with 'python -m repro metrics'",
    )
    out.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    return parser


def _make_stream(args):
    if args.tenants:
        profiles = [p.strip() for p in args.tenants.split(",") if p.strip()]
        config = tenant_mix(profiles, scale=args.scale)
        return tenant_stream(
            config, seed=args.seed, max_live_clusters=args.max_live_clusters
        )
    config = make_profile(args.workload, scale=args.scale)
    return grammar_stream(
        config, seed=args.seed, max_live_clusters=args.max_live_clusters
    )


def _service_config(args) -> ServiceConfig:
    return ServiceConfig(
        target_ops_per_s=args.target_ops,
        checkpoint_every_events=args.checkpoint_every,
        max_log_records=args.max_log_records,
        max_heap_bytes=args.max_heap_bytes,
        backpressure="off" if args.max_heap_bytes is None else "shed",
        max_events=args.max_events,
    )


def _print_serve_report(report, as_json: bool) -> None:
    if as_json:
        payload = {
            "stopped": report.stopped,
            "events_seen": report.events_seen,
            "events_applied": report.events_applied,
            "events_fused": report.events_fused,
            "next_index": report.next_index,
            "checkpoints": report.checkpoints,
            "collections": report.collections,
            "heap_peak_bytes": report.heap_peak_bytes,
            "log_suffix_length": report.log_suffix_length,
            "log_appended_total": report.log_appended_total,
            "wal": report.wal,
            "backpressure": report.backpressure.as_metrics(),
            "final_digest": report.final_digest,
            "paced_sleep_s": round(report.paced_sleep_s, 3),
            "stream_fallbacks": report.stream_fallbacks,
            "stream_host": report.stream_host,
            "stream_wait_s": round(report.stream_wait_s, 3),
            "wall_s": round(report.wall_s, 3),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    bp = report.backpressure
    print(f"stopped: {report.stopped} after {report.events_seen} events "
          f"({report.events_applied} applied, {report.events_fused} by the "
          f"fused kernels) in {report.wall_s:.2f}s")
    print(f"checkpoints: {report.checkpoints}  collections: "
          f"{report.collections}  heap peak: {report.heap_peak_bytes} bytes")
    print(f"redo log: {report.log_suffix_length} suffix records "
          f"({report.log_appended_total} lifetime)  wal: {report.wal}")
    if bp.engaged:
        print(f"backpressure: engaged {bp.engaged}x, "
              f"{bp.forced_collections} forced collections, "
              f"{bp.shed_events} events shed "
              f"({bp.shed_objects} objects, {bp.shed_transactions} txs)")
    print(f"stream: host {report.stream_host}, {report.stream_wait_s:.3f}s waiting "
          f"for chunks, {report.stream_fallbacks} fallbacks")
    print(f"state digest: {report.final_digest}")
    print(f"resume index: {report.next_index}")


def _print_soak_report(report, as_json: bool) -> None:
    if as_json:
        payload = {
            "events_total": report.events_total,
            "crashes": report.crashes,
            "checkpoints": report.checkpoints,
            "matches_reference": report.matches_reference,
            "suffix_only": report.suffix_only,
            "reference_digest": report.reference_digest,
            "final_digest": report.final_digest,
            "recoveries": [
                {
                    "site": r.site,
                    "event_index": r.event_index,
                    "resume_index": r.resume_index,
                    "recovered_objects": r.recovered_objects,
                    "from_checkpoint": r.from_checkpoint,
                    "records_replayed": r.records_replayed,
                    "log_appended_total": r.log_appended_total,
                }
                for r in report.recoveries
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(f"soak: {report.events_total} events, {report.crashes} crashes, "
          f"{report.checkpoints} checkpoints")
    for r in report.recoveries:
        origin = (
            f"checkpoint@{r.checkpoint_event_index}"
            if r.from_checkpoint
            else "full log"
        )
        print(f"  crash at {r.site} (event {r.event_index}) -> recovered "
              f"{r.recovered_objects} objects from {origin}, replayed "
              f"{r.records_replayed}/{r.log_appended_total} records, "
              f"resumed at {r.resume_index}")
    verdict = "MATCH" if report.matches_reference else "MISMATCH"
    print(f"byte-identity: {verdict} "
          f"(reference {report.reference_digest[:16]}..., "
          f"final {report.final_digest[:16]}...)")
    print(f"suffix-only recovery: {'yes' if report.suffix_only else 'NO'}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    stream = _make_stream(args)
    svc = _service_config(args)
    policy_spec = parse_policy(args.policy)

    if args.soak:
        if not args.faults:
            print("error: --soak requires --faults PLAN.json", file=sys.stderr)
            return 2
        if args.max_events is None:
            print("error: --soak requires --max-events (a bounded window)",
                  file=sys.stderr)
            return 2
        try:
            soak_service(svc)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        plan = FaultPlan.from_json(Path(args.faults).read_text())
        report = run_soak_drill(
            stream,
            policy_spec,
            seed=args.seed,
            service=svc,
            plan=plan,
            max_crashes=args.max_crashes,
            telemetry=args.telemetry,
        )
        _print_soak_report(report, args.json)
        return 0 if (report.matches_reference and report.suffix_only) else 1

    obs = None
    if args.telemetry:
        from repro.obs.telemetry import RunTelemetry

        obs = RunTelemetry(
            args.telemetry, kind="service", label=args.policy, seed=args.seed
        )
    gcs = GcService(
        policy=build_policy(policy_spec, args.seed),
        stream=stream,
        service=svc,
        obs=obs,
    )
    gcs.install_signal_handlers()
    report = gcs.run()
    if obs is not None:
        obs.close()
    _print_serve_report(report, args.json)
    return 0
