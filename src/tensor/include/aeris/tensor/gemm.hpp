#pragma once

#include <cstdint>

#include "aeris/tensor/tensor.hpp"

namespace aeris {

/// Numeric policy for matrix products, mirroring the paper's mixed
/// precision scheme (§V-A): GEMM/attention inputs in BF16 with FP32
/// accumulation, everything else FP32.
enum class GemmPrecision {
  kFP32,   ///< plain single precision
  kBF16,   ///< inputs rounded through bfloat16, FP32 accumulation
  kBF16A,  ///< only A rounded through bfloat16; B is consumed as-is
           ///< (for callers holding weights already rounded to bf16, so
           ///< the pre-rounded operand is not rounded a second time)
};

/// C = alpha * op(A) @ op(B) + beta * C.
///
/// A is (M x K) after optional transpose, B is (K x N) after optional
/// transpose, C is (M x N). Implemented as a register-tiled micro-kernel
/// (8x32 accumulator tile, 8x16 for a last strip of at most 16 columns,
/// SIMD inner loop). Row-major fp32 A is read in place; B (and A when it
/// is transposed or bf16-rounded, else only its M % 8 tail rows) is packed
/// into tile-panel layout in the calling thread's scratch arena. The
/// packed B panel is shared by all row blocks, and row blocks are
/// dispatched to the global thread pool. Raw-pointer interface so callers
/// can address sub-blocks (attention heads, window shards) without
/// materializing views.
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc, GemmPrecision prec = GemmPrecision::kFP32);

/// Same contract as gemm() but never dispatches to the thread pool. For
/// callers that are themselves running inside a parallel_for chunk (e.g.
/// the streaming attention path parallelizes over heads and runs one
/// serial GEMM per tile) — nesting pool dispatches would deadlock a
/// single-worker pool and oversubscribe a busy one.
void gemm_serial(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float* a, std::int64_t lda,
                 const float* b, std::int64_t ldb, float beta, float* c,
                 std::int64_t ldc, GemmPrecision prec = GemmPrecision::kFP32);

/// Tensor convenience: returns op(A) @ op(B); A and B must be rank 2.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false, GemmPrecision prec = GemmPrecision::kFP32);

/// Process-wide default precision used by the nn layers; tests flip this
/// to quantify BF16 effects without plumbing a flag through every module.
GemmPrecision default_gemm_precision();
void set_default_gemm_precision(GemmPrecision prec);

}  // namespace aeris
