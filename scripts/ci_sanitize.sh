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
# Usage: scripts/ci_sanitize.sh [tsan_build_dir] [asan_build_dir]
#   (defaults: <repo>/build-tsan, <repo>/build-asan)
# Also wired as a CMake target: cmake --build build --target ci_sanitize
set -e
repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build-tsan"}
asan_build=${2:-"$repo/build-asan"}

cmake -B "$build" -S "$repo" -DAERIS_SANITIZE=thread
cmake --build "$build" -j --target test_tensor test_nn test_recycle test_swipe test_core test_serving test_consistency test_multimodel test_cluster test_elastic
# TSan aborts the process on the first race (halt_on_error), so a clean
# exit means a clean suite. The timeout backstops comm deadlocks.
TSAN_OPTIONS="halt_on_error=1 $TSAN_OPTIONS" \
  timeout 600 "$build/tests/test_tensor"
echo "TSan tensor suite (GEMM tiles, fast math, concurrent pool dispatch) clean"
TSAN_OPTIONS="halt_on_error=1 $TSAN_OPTIONS" \
  timeout 600 "$build/tests/test_nn"
echo "TSan nn suite clean"
TSAN_OPTIONS="halt_on_error=1 $TSAN_OPTIONS" \
  timeout 600 "$build/tests/test_recycle"
echo "TSan recycle suite clean"
TSAN_OPTIONS="halt_on_error=1 $TSAN_OPTIONS" \
  timeout 600 "$build/tests/test_swipe"
echo "TSan swipe suite clean"
TSAN_OPTIONS="halt_on_error=1 $TSAN_OPTIONS" \
  timeout 600 "$build/tests/test_core" \
  --gtest_filter='ParallelEnsemble.*:FwdCtxRegression.*'
echo "TSan concurrent-ensemble suite clean"
TSAN_OPTIONS="halt_on_error=1 $TSAN_OPTIONS" \
  timeout 600 "$build/tests/test_serving"
echo "TSan serving suite (incl. fault drill) clean"
TSAN_OPTIONS="halt_on_error=1 $TSAN_OPTIONS" \
  timeout 600 "$build/tests/test_consistency"
echo "TSan consistency suite (mixed teacher/student serving) clean"
TSAN_OPTIONS="halt_on_error=1 $TSAN_OPTIONS" \
  timeout 600 "$build/tests/test_multimodel"
echo "TSan multimodel suite (mixed-variant pack purity drill) clean"
TSAN_OPTIONS="halt_on_error=1 $TSAN_OPTIONS" \
  timeout 600 "$build/tests/test_cluster"
echo "TSan cluster suite (incl. chaos kill drill) clean"
TSAN_OPTIONS="halt_on_error=1 $TSAN_OPTIONS" \
  timeout 600 "$build/tests/test_elastic"
echo "TSan elastic suite (incl. park/un-park chaos soak) clean"

cmake -B "$asan_build" -S "$repo" -DAERIS_SANITIZE=address
cmake --build "$asan_build" -j --target test_tensor test_nn test_recycle test_swipe test_serving test_consistency test_multimodel test_cluster test_elastic
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 $ASAN_OPTIONS" \
  timeout 600 "$asan_build/tests/test_tensor"
echo "ASan tensor suite (GEMM tiles, fast math, concurrent pool dispatch) clean"
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 $ASAN_OPTIONS" \
  timeout 600 "$asan_build/tests/test_nn"
echo "ASan nn suite (strided attention, RoPE table, RMSNorm row blocks) clean"
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 $ASAN_OPTIONS" \
  timeout 600 "$asan_build/tests/test_recycle"
echo "ASan recycle suite clean"
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 $ASAN_OPTIONS" \
  timeout 600 "$asan_build/tests/test_swipe"
echo "ASan swipe suite (receive paths, fault hooks) clean"
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 $ASAN_OPTIONS" \
  timeout 600 "$asan_build/tests/test_serving"
echo "ASan serving suite clean"
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 $ASAN_OPTIONS" \
  timeout 600 "$asan_build/tests/test_consistency"
echo "ASan consistency suite clean"
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 $ASAN_OPTIONS" \
  timeout 600 "$asan_build/tests/test_multimodel"
echo "ASan multimodel suite (mixed-variant pack purity drill) clean"
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 $ASAN_OPTIONS" \
  timeout 600 "$asan_build/tests/test_cluster"
echo "ASan cluster suite (incl. chaos kill drill) clean"
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 $ASAN_OPTIONS" \
  timeout 600 "$asan_build/tests/test_elastic"
echo "ASan elastic suite (incl. park/un-park chaos soak) clean"
