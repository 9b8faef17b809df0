#!/usr/bin/env sh
# Sanitizer gates for the threaded runtimes.
#
# TSan leg (AERIS_SANITIZE=thread): (a) the swipe test suite, where the
# poisoning / fault-injection races would live if we had any, (b) the
# concurrent shared-model ensemble tests, which pin the reentrant-forward
# claim that inference holds no shared mutable state, and (c) the serving
# suite incl. the fault drill — randomized concurrent clients, deadlines,
# quarantine and queue saturation against one ForecastServer.
#
# ASan leg (AERIS_SANITIZE=address): the serving suite again — the server
# juggles cross-request tensor lifetimes (packs point into other requests'
# trajectories), which is exactly where use-after-free would hide — and the
# swipe suite, whose receive paths pop, claim and move shared payloads and
# carry the receive-side fault hooks.
#
# Both legs additionally run the consistency suite: mixed teacher/student
# clients share one engine across server workers, and the distiller's
# EMA-target refresh is the one place a model's weights mutate between
# forwards.
#
# Both legs also run the multimodel suite: the randomized mixed-variant
# pack-purity drill plus concurrent clients spread across a model zoo —
# distinct engines (some sharing backbone weight storage) routed through
# one server, where a pack that mixed variants would surface as a race or
# a lifetime bug.
#
# Both legs also run the cluster suite — worker ranks dying (kills,
# escaped exceptions, hangs) while leases are in flight is the richest
# unwinding in the codebase, and the randomized chaos kill drill is the
# cluster's acceptance test: every request must terminate typed while
# incarnations collapse and re-form under the sanitizer.
#
# Both legs also run the elastic suite: the park/un-park chaos soak races
# offer_worker against quorum collapse — join handshakes, probation
# promotion and admission resumption all cross threads, and the
# membership roster hand-off between the front-end and the manager is the
# newest place a race or a stale-pointer bug would hide.
#
# Both legs also run the nn suite: the window-attention kernel reads qkv
# rows at a stride, RoPE rotates from a shared table, and RMSNorm works
# four rows at a time — out-of-bounds reads and compile-mode-dependent bits
# (an inlined copy giving other bits than the reference under ASan) show
# up there first.
#
# Both legs also run the tensor suite and the recycle suite. The tensor
# suite holds the GEMM tile coverage (pack-free A reads of strided
# sub-blocks, the packed m % 8 tail), the fast transcendental kernels and
# the concurrent-dispatch tests: two application threads issuing threaded
# GEMMs at once, where the pool's dispatch try-lock is the only thing
# between them. The recycle
# suite covers TensorRecycleScope lifetimes: buffers parked and handed
# back within a scope, released once at the outermost exit, tensors
# escaping the scope and freed on another thread, and unwinding out of a
# throwing step_pack.
#
# Every suite runs even when an earlier one fails (a known flaky test
# must not hide the suites after it): failures are collected, their names
# printed at the end, and the script then exits 1. A failed build still
# stops the script at once.
#
# Usage: scripts/ci_sanitize.sh [tsan_build_dir] [asan_build_dir]
#   (defaults: <repo>/build-tsan, <repo>/build-asan)
# Also wired as a CMake target: cmake --build build --target ci_sanitize
set -e
repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build-tsan"}
asan_build=${2:-"$repo/build-asan"}
failed=""

# run_suite <label> <command...>: runs one suite, prints "<label> clean" on
# success and records the label on failure.
run_suite() {
  label=$1
  shift
  if "$@"; then
    echo "$label clean"
  else
    echo "$label FAILED"
    failed="$failed
  $label"
  fi
}

# TSan aborts the process on the first race (halt_on_error), so a clean
# exit means a clean suite. The timeout backstops comm deadlocks.
tsan() {
  label=$1
  shift
  run_suite "$label" env TSAN_OPTIONS="halt_on_error=1 $TSAN_OPTIONS" \
    timeout 600 "$@"
}

asan() {
  label=$1
  shift
  run_suite "$label" \
    env ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 $ASAN_OPTIONS" \
    timeout 600 "$@"
}

cmake -B "$build" -S "$repo" -DAERIS_SANITIZE=thread
cmake --build "$build" -j --target test_tensor test_nn test_recycle test_swipe test_core test_serving test_consistency test_multimodel test_cluster test_elastic
tsan "TSan tensor suite (GEMM tiles, fast math, concurrent pool dispatch)" \
  "$build/tests/test_tensor"
tsan "TSan nn suite" "$build/tests/test_nn"
tsan "TSan recycle suite" "$build/tests/test_recycle"
tsan "TSan swipe suite" "$build/tests/test_swipe"
tsan "TSan concurrent-ensemble suite" "$build/tests/test_core" \
  --gtest_filter='ParallelEnsemble.*:FwdCtxRegression.*'
tsan "TSan serving suite (incl. fault drill)" "$build/tests/test_serving"
tsan "TSan consistency suite (mixed teacher/student serving)" \
  "$build/tests/test_consistency"
tsan "TSan multimodel suite (mixed-variant pack purity drill)" \
  "$build/tests/test_multimodel"
tsan "TSan cluster suite (incl. chaos kill drill)" "$build/tests/test_cluster"
tsan "TSan elastic suite (incl. park/un-park chaos soak)" \
  "$build/tests/test_elastic"

cmake -B "$asan_build" -S "$repo" -DAERIS_SANITIZE=address
cmake --build "$asan_build" -j --target test_tensor test_nn test_recycle test_swipe test_serving test_consistency test_multimodel test_cluster test_elastic
asan "ASan tensor suite (GEMM tiles, fast math, concurrent pool dispatch)" \
  "$asan_build/tests/test_tensor"
asan "ASan nn suite (strided attention, RoPE table, RMSNorm row blocks)" \
  "$asan_build/tests/test_nn"
asan "ASan recycle suite" "$asan_build/tests/test_recycle"
asan "ASan swipe suite (receive paths, fault hooks)" \
  "$asan_build/tests/test_swipe"
asan "ASan serving suite" "$asan_build/tests/test_serving"
asan "ASan consistency suite" "$asan_build/tests/test_consistency"
asan "ASan multimodel suite (mixed-variant pack purity drill)" \
  "$asan_build/tests/test_multimodel"
asan "ASan cluster suite (incl. chaos kill drill)" \
  "$asan_build/tests/test_cluster"
asan "ASan elastic suite (incl. park/un-park chaos soak)" \
  "$asan_build/tests/test_elastic"

if [ -n "$failed" ]; then
  echo "ci_sanitize: failed suites:$failed"
  exit 1
fi
echo "ci_sanitize: every suite clean"
