#include "aeris/tensor/gemm.hpp"

#include <algorithm>
#include <stdexcept>

#include "aeris/tensor/arena.hpp"
#include "aeris/tensor/thread_pool.hpp"

namespace aeris {
namespace {

// Register tile: kMR rows x kNR columns of C held in accumulators across
// the whole K loop. kNR = 32 floats is two AVX-512 vectors, so the tile is
// 16 zmm accumulators — enough independent FMA chains to cover the FMA
// latency x port product — plus two B vectors and one A broadcast.
constexpr std::int64_t kMR = 8;
constexpr std::int64_t kNR = 32;
// The last B strip is only kNRTail wide when at most kNRTail columns
// remain, so narrow products (dh = 8 attention heads) are not padded to a
// full kNR strip.
constexpr std::int64_t kNRTail = 16;

// Floor on per-chunk work for the row-block dispatch, so tiny GEMMs run
// inline instead of paying fork-join overhead.
constexpr std::int64_t kMinFlopsPerChunk = std::int64_t{1} << 18;

// Width of the B strip starting at column j0.
std::int64_t strip_width(std::int64_t n, std::int64_t j0) {
  return n - j0 <= kNRTail ? kNRTail : kNR;
}

// C tile := alpha * (A rows @ packed B strip) + beta * C tile.
//
// Element (i, p) of the A rows is a[i * rs + p * cs]: row-major fp32 A is
// read in place (rs = lda, cs = 1), a packed strip has rs = 1, cs = kMR
// with zero-padded rows. `bp` is one B strip: kc steps of kW values,
// bp[p*kW + j] = op(B)[p, j0 + j]. Every C element accumulates its K
// products in order from zero, so the tile shape never changes results.
// The K loop is branch-free; alpha/beta handling happens once at the store,
// with the (alpha=1, beta=0) assignment path and the beta=0 overwrite path
// specialized so steady-state forward passes never read C. NaN/Inf in
// either operand propagate through the products — there is deliberately
// no zero-skip in the hot loop.
template <std::int64_t kW>
void micro_kernel(std::int64_t kc, const float* a, std::int64_t rs,
                  std::int64_t cs, const float* bp, float* c, std::int64_t ldc,
                  float alpha, float beta, std::int64_t mr, std::int64_t nr) {
  float acc[kMR][kW] = {};
  const float* ar[kMR];
  for (std::int64_t i = 0; i < kMR; ++i) ar[i] = a + i * rs;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* b = bp + p * kW;
    const std::int64_t ap = p * cs;
#pragma GCC unroll 8
    for (std::int64_t i = 0; i < kMR; ++i) {
      const float av = ar[i][ap];
#pragma omp simd
      for (std::int64_t j = 0; j < kW; ++j) acc[i][j] += av * b[j];
    }
  }
  for (std::int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    if (alpha == 1.0f && beta == 0.0f) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = acc[i][j];
    } else if (beta == 0.0f) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = alpha * acc[i][j];
    } else if (beta == 1.0f) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += alpha * acc[i][j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) {
        crow[j] = alpha * acc[i][j] + beta * crow[j];
      }
    }
  }
}

// Packs op(A) (m x k) into ceil(m/kMR) strips of kMR zero-padded rows:
// dst[s*k*kMR + p*kMR + i] = op(A)[s*kMR + i, p]. Zero padding lets the
// kernel always run a full register tile.
void pack_a(bool trans, std::int64_t m, std::int64_t k, const float* a,
            std::int64_t lda, float* dst) {
  const std::int64_t strips = (m + kMR - 1) / kMR;
  for (std::int64_t s = 0; s < strips; ++s) {
    float* out = dst + s * k * kMR;
    const std::int64_t mr = std::min(kMR, m - s * kMR);
    for (std::int64_t i = 0; i < kMR; ++i) {
      if (i >= mr) {
        for (std::int64_t p = 0; p < k; ++p) out[p * kMR + i] = 0.0f;
        continue;
      }
      const std::int64_t row = s * kMR + i;
      if (!trans) {
        const float* src = a + row * lda;
        for (std::int64_t p = 0; p < k; ++p) out[p * kMR + i] = src[p];
      } else {
        for (std::int64_t p = 0; p < k; ++p) {
          out[p * kMR + i] = a[p * lda + row];
        }
      }
    }
  }
}

// Packs op(B) (k x n) into strips of strip_width() zero-padded columns;
// the strip for columns [j0, j0 + w) starts at dst + j0 * k and holds
// dst[j0*k + p*w + j] = op(B)[p, j0 + j].
void pack_b(bool trans, std::int64_t k, std::int64_t n, const float* b,
            std::int64_t ldb, float* dst) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kNR) {
    const std::int64_t w = strip_width(n, j0);
    const std::int64_t nr = std::min(w, n - j0);
    float* out = dst + j0 * k;
    for (std::int64_t p = 0; p < k; ++p) {
      float* row = out + p * w;
      if (!trans) {
        const float* src = b + p * ldb + j0;
        for (std::int64_t j = 0; j < nr; ++j) row[j] = src[j];
      } else {
        for (std::int64_t j = 0; j < nr; ++j) row[j] = b[(j0 + j) * ldb + p];
      }
      for (std::int64_t j = nr; j < w; ++j) row[j] = 0.0f;
    }
  }
}

// The A operand by row strip: the first `in_place` strips are read
// straight from row-major `a`; the rest come from `packed` (all strips
// for transposed A, else only the m % kMR tail).
struct AStrips {
  const float* a = nullptr;
  std::int64_t lda = 0;
  std::int64_t in_place = 0;
  const float* packed = nullptr;
};

// All C row-strips [s0, s1) against every packed B strip. B strips are the
// outer loop so one strip stays in L1 while the row blocks stream past it.
void gemm_strips(std::int64_t s0, std::int64_t s1, std::int64_t m,
                 std::int64_t n, std::int64_t k, float alpha,
                 const AStrips& as, const float* pb, float beta, float* c,
                 std::int64_t ldc) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kNR) {
    const std::int64_t nr = std::min(kNR, n - j0);
    const bool tail = strip_width(n, j0) == kNRTail;
    for (std::int64_t s = s0; s < s1; ++s) {
      const std::int64_t mr = std::min(kMR, m - s * kMR);
      const bool direct = s < as.in_place;
      const float* ap = direct ? as.a + s * kMR * as.lda
                               : as.packed + (s - as.in_place) * k * kMR;
      const std::int64_t rs = direct ? as.lda : 1;
      const std::int64_t cs = direct ? 1 : kMR;
      float* ct = c + s * kMR * ldc + j0;
      if (tail) {
        micro_kernel<kNRTail>(k, ap, rs, cs, pb + j0 * k, ct, ldc, alpha,
                              beta, mr, nr);
      } else {
        micro_kernel<kNR>(k, ap, rs, cs, pb + j0 * k, ct, ldc, alpha, beta,
                          mr, nr);
      }
    }
  }
}

void gemm_impl(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, const float* a, std::int64_t lda,
               const float* b, std::int64_t ldb, float beta, float* c,
               std::int64_t ldc, bool threaded) {
  if (m < 0 || n < 0 || k < 0) throw std::invalid_argument("gemm: bad dims");
  if (m == 0 || n == 0) return;
  const std::int64_t astrips = (m + kMR - 1) / kMR;
  const std::int64_t j_last = (n - 1) / kNR * kNR;  // last B strip
  const std::int64_t bcols = j_last + strip_width(n, j_last);

  // Row-major A is read in place; only the m % kMR tail (or all of A when
  // it must be transposed) is packed. Packing goes to the caller's arena
  // once; the B panel is read by every row block (and every pool worker)
  // without being re-packed.
  AStrips as;
  if (!trans_a && k > 0) {
    as.a = a;
    as.lda = lda;
    as.in_place = m / kMR;
  }
  ScratchArena& arena = ScratchArena::for_current_thread();
  ScratchArena::Scope scope(arena);
  float* pa = arena.alloc_floats((astrips - as.in_place) * kMR * k);
  float* pb = arena.alloc_floats(bcols * k);
  as.packed = pa;
  if (k > 0) {
    const std::int64_t r0 = as.in_place * kMR;
    if (r0 < m) pack_a(trans_a, m - r0, k, a + r0 * lda, lda, pa);
    pack_b(trans_b, k, n, b, ldb, pb);
  }

  if (!threaded) {
    gemm_strips(0, astrips, m, n, k, alpha, as, pb, beta, c, ldc);
    return;
  }
  const std::int64_t flops_per_strip =
      std::max<std::int64_t>(1, 2 * kMR * n * k);
  const std::int64_t grain = std::max<std::int64_t>(
      1, kMinFlopsPerChunk / flops_per_strip);
  parallel_for(
      astrips,
      [&](std::int64_t s0, std::int64_t s1) {
        gemm_strips(s0, s1, m, n, k, alpha, as, pb, beta, c, ldc);
      },
      grain);
}

}  // namespace

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc) {
  gemm_impl(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
            /*threaded=*/true);
}

void gemm_serial(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float* a, std::int64_t lda,
                 const float* b, std::int64_t ldb, float beta, float* c,
                 std::int64_t ldc) {
  gemm_impl(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
            /*threaded=*/false);
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  if (a.ndim() != 2 || b.ndim() != 2) {
    throw std::invalid_argument("matmul: operands must be rank 2");
  }
  const std::int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::int64_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::int64_t kb = trans_b ? b.dim(1) : b.dim(0);
  const std::int64_t n = trans_b ? b.dim(0) : b.dim(1);
  if (k != kb) {
    throw std::invalid_argument("matmul: inner dim mismatch " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  Tensor c({m, n});
  gemm(trans_a, trans_b, m, n, k, 1.0f, a.data(), a.dim(1), b.data(), b.dim(1),
       0.0f, c.data(), n);
  return c;
}

}  // namespace aeris
