#pragma once

#include <cstdint>

#include "aeris/tensor/tensor.hpp"

namespace aeris {

/// C = alpha * op(A) @ op(B) + beta * C.
///
/// A is (M x K) after optional transpose, B is (K x N) after optional
/// transpose, C is (M x N). Implemented as a register-tiled micro-kernel
/// (8x32 accumulator tile, 8x16 for a last strip of at most 16 columns,
/// SIMD inner loop). Row-major A is read in place; B (and A when it is
/// transposed, else only its M % 8 tail rows) is packed into tile-panel
/// layout in the calling thread's scratch arena. The packed B panel is
/// shared by all row blocks, and row blocks are dispatched to the global
/// thread pool. Raw-pointer interface so callers
/// can address sub-blocks (attention heads, window shards) without
/// materializing views.
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc);

/// Same contract as gemm() but never dispatches to the thread pool. For
/// callers that are themselves running inside a parallel_for chunk (e.g.
/// the streaming attention path parallelizes over heads and runs one
/// serial GEMM per tile) — nesting pool dispatches would deadlock a
/// single-worker pool and oversubscribe a busy one.
void gemm_serial(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float* a, std::int64_t lda,
                 const float* b, std::int64_t ldb, float beta, float* c,
                 std::int64_t ldc);

/// Tensor convenience: returns op(A) @ op(B); A and B must be rank 2.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

}  // namespace aeris
