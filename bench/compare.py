"""Compare two result sets of ``bench/run.py``: ``compare.py A.json B.json``.

``A`` is the base (parent commit, or the first of two sets of one commit),
``B`` the candidate. Bounds come from ``BENCHMARK.json``. One row per
(workload, end-to-end metric), every ratio printed with its base:

* ``worse``        — B's median is worse than A's by more than the bound;
* ``better``       — every run of B reads better than every run of A;
* ``unresolved``   — neither, and the run-to-run spread of either side is
  wider than the bound, so "unchanged" cannot be claimed;
* ``within bound`` — otherwise.

Per-layer metrics have no bound and are listed for attribution. Metrics
marked ``exact`` in ``bench/metrics.py`` are functions of the inputs alone;
with ``--exact`` (two sets of the *same* commit and seed) any difference in
one of them is a failure. Exits 1 on any ``worse`` row or exact mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402


def spread(values: list[float]) -> float:
    """Full range of the runs as a share of their median."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / abs(middle) if middle else 0.0


def judge(better: str, bound: float, base: list[float], new: list[float]) -> tuple[str, float]:
    """Verdict and the signed worsening of ``new`` against ``base`` (>0 = worse)."""
    a, b = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / abs(a) if a else 0.0
    if worse_by > bound:
        return "worse", worse_by
    if better == "lower" and max(new) < min(base) or better == "higher" and min(new) > max(base):
        return "better", worse_by
    if max(spread(base), spread(new)) > bound:
        return "unresolved", worse_by
    return "within bound", worse_by


def compare(base: dict, new: dict, bounds: dict[str, float], exact_only_equal: bool) -> int:
    failures = 0
    print(f"{'workload':<13} {'metric':<22} {'base':>13} {'new':>13} {'new/base':>9}  verdict")
    for name, base_entry in base["workloads"].items():
        new_entry = new["workloads"][name]
        for metric in END_TO_END:
            a = base_entry["end_to_end"][metric.name]
            b = new_entry["end_to_end"][metric.name]
            if metric.exact and exact_only_equal:
                same = a["values"] == b["values"]
                verdict, failed = ("equal" if same else "DIFFERS"), not same
            else:
                verdict, _ = judge(metric.better, bounds[metric.name], a["values"], b["values"])
                failed = verdict == "worse"
            failures += failed
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            print(
                f"{name:<13} {metric.name:<22} {a['median']:>13.6g} {b['median']:>13.6g} "
                f"{ratio:>8.3f}x  {verdict} (bound {bounds[metric.name]:.0%}, "
                f"spread {spread(a['values']):.1%}/{spread(b['values']):.1%})"
            )
    print()
    print(f"{'workload':<13} {'layer metric':<38} {'base':>13} {'new':>13} {'new/base':>9}")
    for name, base_entry in base["workloads"].items():
        new_entry = new["workloads"][name]
        for metric in PER_LAYER:
            a = base_entry["per_layer"][metric.name]["value"]
            b = new_entry["per_layer"][metric.name]["value"]
            note = ""
            if metric.exact:
                note = "  equal" if a == b else "  DIFFERS"
                failures += exact_only_equal and a != b
            ratio = f"{b / a:>8.3f}x" if a else f"{'-':>9}"
            print(f"{name:<13} {metric.name:<38} {a:>13.6g} {b:>13.6g} {ratio}{note}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument(
        "--exact", action="store_true",
        help="both sets are one commit and seed: exact metrics must be equal",
    )
    args = parser.parse_args(argv)
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry["bound"] for entry in manifest["end_to_end"]}
    base, new = json.loads(args.base.read_text()), json.loads(args.new.read_text())
    if args.exact and (base["seed"], base["scale"]) != (new["seed"], new["scale"]):
        parser.error("--exact needs two sets of the same seed and scale")
    failures = compare(base, new, bounds, args.exact)
    print(f"\n{failures} failing row(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
