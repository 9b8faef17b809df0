#!/usr/bin/env python3
"""Builds and runs the AERIS end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_open --seed 1 --seconds 30 --trace 0

The first run configures and compiles perfbench/ (the library sources
under src/ plus the benchmark program) into .bench_build/; later runs only
re-check the build. The program's output is passed through, and its last
line is the result: one JSON object with the keys correct, attempted,
failed and metrics. Traced runs (--trace 1) also write a Chrome
trace-event file under .bench_build/traces/.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_open", "serve_cluster", "ensemble_offline")
RUN_TIMEOUT_S = 170  # a run must finish well inside 180 s
BUILD_TIMEOUT_S = 840


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "aeris_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    trace_dir = os.path.join(root, ".bench_build", "traces")
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(trace_dir, exist_ok=True)

    # The workloads fix their own configuration; AERIS_* knobs in the
    # caller's environment (precision, sampler, cache, serving overrides)
    # must not change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("AERIS_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        if lines:
            print(lines[-1], file=sys.stderr)
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
