"""``python -m repro train``: fit the learned garbage estimator offline.

Reads one or more RunTelemetry JSON-lines files (or directories of them),
replays their GC timelines into training rows
(:mod:`repro.obs.features`), fits the linear garbage-fraction model with
deterministic seeded SGD (:func:`repro.gc.learned.train_model`) and
writes a versioned, content-hashed model artifact.

The printed ``spec`` line is ready to paste anywhere an estimator name is
accepted — ``--estimator``/policy specs on the fleet and tournament CLIs,
or ``SagaPolicy`` via ``make_estimator``::

    python -m repro fleet --telemetry tel/ ...   # generate training data
    python -m repro train tel/ --out models/learned.json
    python -m repro fleet --policies saga:0.15:learned:models/learned.json ...

Training is bit-reproducible: the same telemetry, seed and
hyperparameters always produce a byte-identical artifact (CI retrains
twice and compares with ``cmp``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.gc.learned import DEFAULT_FEATURE_HISTORY, train_model
from repro.obs.features import load_training_rows
from repro.obs.telemetry import TelemetryError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-train",
        description=(
            "Fit the learned garbage estimator from telemetry GC timelines "
            "and write a content-hashed model artifact."
        ),
    )
    parser.add_argument(
        "telemetry",
        type=Path,
        nargs="+",
        metavar="PATH",
        help="telemetry .jsonl files and/or directories of them",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("learned_model.json"),
        metavar="MODEL.JSON",
        help="where to write the model artifact (default: %(default)s)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="SGD seed: weight init and epoch shuffling (default: %(default)s)",
    )
    parser.add_argument(
        "--lr",
        type=float,
        default=0.05,
        help="initial SGD learning rate (default: %(default)s)",
    )
    parser.add_argument(
        "--epochs",
        type=int,
        default=200,
        help="SGD epochs over the training rows (default: %(default)s)",
    )
    parser.add_argument(
        "--l2",
        type=float,
        default=1e-4,
        help="L2 weight penalty (default: %(default)s)",
    )
    parser.add_argument(
        "--history",
        type=float,
        default=DEFAULT_FEATURE_HISTORY,
        help=(
            "EMA history factor for the smoothed features; stored in the "
            "artifact so serving replays it (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON summary instead of text",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else sys.argv[1:])
    for path in args.telemetry:
        if not path.exists():
            parser.error(f"argument PATH: no such file or directory: {path}")
    try:
        matrix = load_training_rows(args.telemetry, history=args.history)
    except TelemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not matrix.rows:
        print(
            "error: no labelled collection records found — was the "
            "telemetry recorded from live runs (cache hits emit none)?",
            file=sys.stderr,
        )
        return 2

    model, report = train_model(
        matrix.rows,
        seed=args.seed,
        learning_rate=args.lr,
        epochs=args.epochs,
        l2=args.l2,
        feature_history=args.history,
        files=len(matrix.files),
    )
    path = model.save(args.out)
    spec = f"learned:{path}@{model.sha256[:12]}"

    if args.json:
        summary = {
            "rows": report.rows,
            "files": report.files,
            "skipped": len(matrix.skipped),
            "epochs": report.epochs,
            "mae": report.mae,
            "baseline_mae": report.baseline_mae,
            "mean_target": report.mean_target,
            "sha256": model.sha256,
            "path": str(path),
            "spec": spec,
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    skipped_note = ""
    if matrix.skipped:
        skipped_note = f" ({len(matrix.skipped)} file(s) had no GC timeline)"
    print(
        f"trained on {report.rows} collections from {report.files} "
        f"telemetry file(s){skipped_note}"
    )
    print(
        f"train MAE {report.mae:.4f} garbage-fraction "
        f"(predict-the-mean baseline {report.baseline_mae:.4f}, "
        f"mean target {report.mean_target:.4f})"
    )
    print(f"model sha256 {model.sha256}")
    print(f"written to {path}")
    print(f"spec {spec}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(main())
