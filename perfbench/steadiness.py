#!/usr/bin/env python3
"""Steadiness record for the end-to-end benchmark.

Runs every workload once per seed with tracing off, for one or more sets
of seeds, and for each set and end-to-end metric reports the median, the
quartiles as statistics.quantiles(values, n=4) gives them, and the
quartile spread (q3 - q1) / median beside the bound BENCHMARK.json fixes
for it. A metric whose spread exceeds its bound is reported as UNRESOLVED,
set-up time included. With two or more sets it also compares each set's
medians with the previous set's: the shift |b - a| / min(a, b), in either
direction, against the metric's bound; a larger shift is reported as
DISAGREE.

The sets are interleaved: run i of every set, for every workload, runs
before run i + 1 of any. All sets then see the same stretches of a host
whose speed drifts, and a shift between them is the benchmark's own
seed-to-seed noise. Each run is preceded by a fixed single-threaded Python
loop whose time is recorded beside the results, so a slow stretch of a
shared host shows in the record. Run from the repository root, with
nothing else loading the machine:

    python3 perfbench/steadiness.py --runs 10 --sets 5001 6001 \\
        --records perfbench/records --out perfbench/STEADINESS.md

--from-raw FILE... tabulates recorded sets (the seeds<N>.json files that
--records writes) instead of running.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def host_probe_ms():
    """Time of a fixed single-threaded loop: a record of how fast the host
    ran at the time (on shared VMs it swings with the neighbours' load)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i * i
    return (time.perf_counter() - t0) * 1e3


def run_once(workload, seed, seconds):
    """One untraced run, preceded by a host speed probe."""
    probe = host_probe_ms()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1]), probe


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    if spread <= bound / 3:
        verdict = "steady"
    elif spread <= bound:
        verdict = "within bound"
    else:
        verdict = "UNRESOLVED"
    return med, q1, q3, spread, verdict


def compare(old, new, metrics):
    """Rows comparing two sets' medians. The shift is |b - a| / min(a, b),
    so a move in either direction counts, and a move by a share s either
    way reads the same."""
    rows = [
        "| workload | metric | first median | second median | shift "
        "| bound | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for w in new:
        if w not in old:
            continue
        for m in metrics:
            a = statistics.median(old[w]["metrics"][m["name"]])
            b = statistics.median(new[w]["metrics"][m["name"]])
            shift = abs(b - a) / min(a, b) if min(a, b) > 0 else 0.0
            verdict = "agree" if shift <= m["bound"] else "DISAGREE"
            rows.append(f"| {w} | {m['name']} | {a:.6g} | {b:.6g} "
                        f"| {shift:.4f} | {m['bound']} | {verdict} |")
    return rows


def collect(workloads, runs, first_seeds, seconds, names):
    """Runs every workload once per seed of every set, interleaved; returns
    one per-run record per set."""
    sets = [{w: {"seeds": [], "attempted": 0, "failed": 0, "incorrect": 0,
                 "host_probe_ms": [], "started_s": [],
                 "metrics": {n: [] for n in names}} for w in workloads}
            for _ in first_seeds]
    start = time.time()
    for i in range(runs):
        for w in workloads:
            for first, raw in zip(first_seeds, sets):
                seed = first + i
                rec = raw[w]
                t0 = time.time()
                res, probe = run_once(w, seed, seconds)
                rec["seeds"].append(seed)
                rec["started_s"].append(round(t0 - start, 1))
                rec["host_probe_ms"].append(probe)
                rec["attempted"] += res["attempted"]
                rec["failed"] += res["failed"]
                rec["incorrect"] += 0 if res["correct"] else 1
                for n in names:
                    rec["metrics"][n].append(res["metrics"][n]["value"])
                print(f"{w} seed {seed}: {time.time() - t0:.1f} s wall, "
                      f"host probe {probe:.0f} ms", file=sys.stderr)
    return sets


def table(raw, bench):
    """The steadiness table of one recorded set."""
    lines = [
        "| workload | metric | unit | median | q1 | q3 | spread | bound "
        "| verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for w, rec in raw.items():
        seeds = rec["seeds"]
        for m in bench["end_to_end"]:
            med, q1, q3, spread, verdict = summarize(
                rec["metrics"][m["name"]], m["bound"])
            lines.append(
                f"| {w} | {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} "
                f"| {q3:.6g} | {spread:.4f} | {m['bound']} | {verdict} |")
        probes = rec.get("host_probe_ms", [])
        probe = (f"host probe median {statistics.median(probes):.0f} ms, "
                 f"range {min(probes):.0f}-{max(probes):.0f} ms"
                 if probes else "host probe not recorded")
        lines.append(
            f"| {w} | (runs) | seeds {seeds[0]}..{seeds[-1]} "
            f"| attempted {rec['attempted']} | failed {rec['failed']} "
            f"| incorrect runs {rec['incorrect']} | {probe} | | |")
    return lines


def first_seed(raw):
    return next(iter(raw.values()))["seeds"][0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, nargs="+", default=[101],
                    help="first seed of each set")
    ap.add_argument("--records", help="directory for the per-run values, "
                    "one seeds<N>.json per set")
    ap.add_argument("--from-raw", nargs="+", help="tabulate recorded sets "
                    "instead of running")
    ap.add_argument("--out", help="markdown file to write")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.from_raw:
        sets = []
        for path in args.from_raw:
            with open(path) as f:
                sets.append(json.load(f))
    else:
        workloads = [w["name"] for w in bench["workloads"]]
        sets = collect(workloads, args.runs, args.sets, bench["run_seconds"],
                       [m["name"] for m in bench["end_to_end"]])
        if args.records:
            os.makedirs(args.records, exist_ok=True)
            for first, raw in zip(args.sets, sets):
                path = os.path.join(args.records, f"seeds{first}.json")
                with open(path, "w") as f:
                    json.dump(raw, f, indent=1)

    lines = []
    for raw in sets:
        lines += ["", f"Set of seeds from {first_seed(raw)}:", ""]
        lines += table(raw, bench)
    for old, new in zip(sets, sets[1:]):
        lines += ["", f"Seeds from {first_seed(old)} against seeds from "
                  f"{first_seed(new)}:", ""]
        lines += compare(old, new, bench["end_to_end"])
    text = "\n".join(lines).lstrip("\n") + "\n"
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
