#!/usr/bin/env python3
"""Compare a fresh google-benchmark JSON run against the committed baseline.

Usage:
    scripts/bench_compare.py NEW.json [BASELINE.json] [--threshold 0.20]

BASELINE defaults to <repo>/BENCH_micro.json (regenerate it with the
`bench_micro_json` CMake target / scripts/bench_micro_json.sh). A benchmark
regresses when its real_time exceeds the baseline by more than the
threshold (default +20%). Exit status is 1 if any benchmark regressed,
0 otherwise — so the script can gate CI directly.

Benchmarks present on only one side are reported but never fail the run:
suites grow, and a missing row in a stale baseline should prompt a
baseline refresh, not a red build. A run recorded with
--benchmark_repetitions contributes its _median aggregate for each row
(the repetitions themselves and the other aggregates are ignored); a
single-repetition run contributes its one iteration row.

Stdlib-only on purpose; runs anywhere CMake does.
"""

import argparse
import json
import sys
from pathlib import Path


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    rows, medians = {}, {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") == "iteration":
            rows[b["name"]] = float(b["real_time"])
        elif b.get("aggregate_name") == "median":
            medians[b["run_name"]] = float(b["real_time"])
    rows.update(medians)
    if not rows:
        raise SystemExit(f"error: no benchmarks in {path}")
    return rows


def fmt_ns(ns):
    if ns >= 1e6:
        return f"{ns / 1e6:9.3f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:9.3f} us"
    return f"{ns:9.1f} ns"


def main():
    repo = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("new", help="fresh benchmark JSON to check")
    ap.add_argument(
        "baseline",
        nargs="?",
        default=str(repo / "BENCH_micro.json"),
        help="baseline JSON (default: repo BENCH_micro.json)",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="fractional real_time slowdown that counts as a regression "
        "(default 0.20 = +20%%)",
    )
    ap.add_argument(
        "--only",
        default=None,
        help="comma-separated benchmark-name prefixes; rows matching none "
        "of them are ignored entirely (scripts/bench_check.sh passes "
        "its hot-row list)",
    )
    args = ap.parse_args()

    base = load_rows(args.baseline)
    new = load_rows(args.new)
    if args.only:
        prefixes = tuple(p for p in args.only.split(",") if p)
        base = {k: v for k, v in base.items() if k.startswith(prefixes)}
        new = {k: v for k, v in new.items() if k.startswith(prefixes)}
        if not new:
            raise SystemExit(f"error: no benchmarks match --only {args.only}")

    regressions = []
    improvements = []
    shared = sorted(set(base) & set(new))
    print(f"{'benchmark':58s} {'baseline':>12s} {'new':>12s} {'delta':>8s}")
    for name in shared:
        b, n = base[name], new[name]
        delta = (n - b) / b
        mark = ""
        if delta > args.threshold:
            regressions.append((name, delta))
            mark = "  << REGRESSION"
        elif delta < -args.threshold:
            improvements.append((name, delta))
            mark = "  (faster)"
        print(f"{name:58s} {fmt_ns(b)} {fmt_ns(n)} {delta:+7.1%}{mark}")

    for name in sorted(set(new) - set(base)):
        print(f"{name:58s} {'--':>12s} {fmt_ns(new[name])}   (new, no baseline)")
    for name in sorted(set(base) - set(new)):
        print(f"{name:58s} {fmt_ns(base[name])} {'--':>12s}   (missing from run)")

    print(
        f"\n{len(shared)} compared, {len(regressions)} regressed "
        f"(> +{args.threshold:.0%}), {len(improvements)} improved."
    )
    if regressions:
        print("regressed:", file=sys.stderr)
        for name, delta in regressions:
            print(f"  {name}  {delta:+.1%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
