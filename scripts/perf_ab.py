#!/usr/bin/env python3
"""Interleaved parent/change A/B runs of the end-to-end benchmark.

Usage (from anywhere inside the repository):

    scripts/perf_ab.py --ref HEAD~1 [--pairs 6] [--seconds 30] [--seed 7]
                       [--workloads serve_open,ensemble_offline] [--trace]
                       [--workdir /tmp/aeris_ab] [--json out.json]

The change side is this checkout as it stands on disk. The parent side is
REF exported with `git archive` into WORKDIR/parent-<sha>/ (reused when it
is already there, so its benchmark build is kept between invocations).
Each side builds and runs perfbench/run.py from its own tree.

For every workload the script runs PAIRS parent/change pairs, alternating
which side goes first (parent first in even pairs), so slow drift in host
load hits both sides alike. It then prints, for each metric the two sides
report: the median and quartiles of each side, the median of the paired
change/parent ratios, and in how many pairs the change was better (by
the metric's direction in BENCHMARK.json). An
end-to-end metric whose median paired ratio is worse than its
BENCHMARK.json bound is marked "BOUND"; a run with correct=false is
reported as well. Exit status is 1 if either happens, else 0. A metric
the change won in at least 9/10 of the pairs, with medians further apart
than the parent's interquartile range, is marked "GAIN".

Reads BENCHMARK.json, writes nothing under perfbench/ or the repository
(the change side's build goes to the benchmark's own ignored
.bench_build/). Stdlib only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def repo_root():
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                         cwd=Path(__file__).resolve().parent, check=True,
                         stdout=subprocess.PIPE, text=True)
    return Path(out.stdout.strip())


def export_parent(root, ref, workdir):
    """Exports REF into WORKDIR/parent-<sha> once; returns the path."""
    sha = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"],
                         cwd=root, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    dest = Path(workdir) / f"parent-{sha[:12]}"
    if not (dest / "perfbench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=root,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"error: git archive {sha} failed")
    return dest, sha


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`; returns its result dict or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def report(workload, runs, spec):
    """Prints the per-metric table; returns the names crossing a bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better.update({m["name"]: m["better"] for m in spec["per_layer"]})
    pairs = [(p, c) for p, c in runs if p is not None and c is not None]
    names = [n for n in better if any(n in p["metrics"] and n in c["metrics"]
                                      for p, c in pairs)]
    print(f"\n== {workload}: {len(pairs)} pairs")
    print(f"{'metric':34s} {'parent median [q1-q3]':>28s} "
          f"{'change median [q1-q3]':>28s} {'ratio':>6s} {'wins':>6s}")
    crossed = []
    for name in names:
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs
                if name in p["metrics"] and name in c["metrics"]]
        pv = [p for p, _ in both]
        cv = [c for _, c in both]
        ratios = [c / p for p, c in both if p != 0]
        higher = better[name] == "higher"
        wins = sum(1 for p, c in both if (c > p if higher else c < p))
        ratio = statistics.median(ratios) if ratios else float("nan")
        pm, cm = statistics.median(pv), statistics.median(cv)
        p1, p3 = quartiles(pv)
        c1, c3 = quartiles(cv)
        flag = ""
        if name in bounds and ratios:
            b = bounds[name]["bound"]
            if (higher and ratio < 1 - b) or (not higher and ratio > 1 + b):
                flag = "  BOUND"
                crossed.append(name)
        # A gain: at least 9/10 of the pairs won and the medians further
        # apart than the parent's interquartile range.
        if (not flag and 10 * wins >= 9 * len(both) and
                (cm > pm if higher else cm < pm) and abs(cm - pm) > p3 - p1):
            flag = "  GAIN"
        print(f"{name:34s} {pm:9.4g} [{p1:7.4g}-{p3:<7.4g}] "
              f"{cm:9.4g} [{c1:7.4g}-{c3:<7.4g}] {ratio:6.3f} "
              f"{wins:>3d}/{len(both):<2d}{flag}")
    for side, idx in (("parent", 0), ("change", 1)):
        rs = [r[idx] for r in runs]
        bad = sum(1 for r in rs if r is None or not r.get("correct"))
        att = sum(r.get("attempted", 0) for r in rs if r)
        fail = sum(r.get("failed", 0) for r in rs if r)
        print(f"{side}: {len(rs) - bad}/{len(rs)} runs correct, "
              f"{fail}/{att} operations failed")
        if bad:
            crossed.append(f"{side}.correct")
    return crossed


def main():
    root = repo_root()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ref", required=True, help="parent commit to compare")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--trace", action="store_true",
                    help="traced runs (per-layer rows; latency not timed)")
    ap.add_argument("--workdir", default="/tmp/aeris_ab",
                    help="where the parent tree is exported")
    ap.add_argument("--json", default=None, help="also dump every run here")
    args = ap.parse_args()

    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    parent, sha = export_parent(root, args.ref, args.workdir)
    print(f"parent {sha[:12]} at {parent}; change at {root}; "
          f"{args.pairs} pairs x {seconds:g} s, seed {args.seed}",
          flush=True)

    crossed, dump = [], {}
    for w in workloads:
        runs = []
        for i in range(args.pairs):
            order = ((0, parent), (1, root))
            if i % 2:
                order = order[::-1]
            pair = [None, None]
            for idx, tree in order:
                pair[idx] = run_once(tree, w, args.seed, seconds, args.trace)
            runs.append(tuple(pair))
            print(f"{w} pair {i + 1}/{args.pairs} done", file=sys.stderr,
                  flush=True)
        dump[w] = [{"parent": p, "change": c} for p, c in runs]
        crossed += [f"{w}.{n}" for n in report(w, runs, spec)]
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(dump, indent=1))
    if crossed:
        print("\nworse than bound or incorrect: " + ", ".join(crossed))
        return 1
    print("\nno end-to-end metric crosses its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
