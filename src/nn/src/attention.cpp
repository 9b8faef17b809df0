#include "aeris/nn/attention.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "aeris/tensor/arena.hpp"
#include "aeris/tensor/fastmath.hpp"
#include "aeris/tensor/gemm.hpp"
#include "aeris/tensor/ops.hpp"
#include "aeris/tensor/thread_pool.hpp"

namespace aeris::nn {
namespace {

// Streaming (flash-style) tile sizes: scores are materialized only as a
// kQBlock x kKBlock tile in the thread's scratch arena, with the softmax
// kept online via running row max / row sum statistics.
constexpr std::int64_t kQBlock = 32;
constexpr std::int64_t kKBlock = 64;

// Sequences up to this length take the fused per-head kernel below; the
// full [t, t] score buffer it materializes stays <= 256 KiB of arena.
constexpr std::int64_t kFusedMaxT = 256;

// One softmax row of the fused kernel, in place: exp(s - max) with the
// row's 1/sum into *inv.
void softmax_row(float* srow, std::int64_t t, float* inv) {
  float mx = srow[0];
#pragma omp simd reduction(max : mx)
  for (std::int64_t j = 1; j < t; ++j) mx = std::max(mx, srow[j]);
  if (!(mx < std::numeric_limits<float>::infinity())) {
    // NaN or +Inf scores (non-finite model state): the branch-free exp
    // below would quietly flush them to finite noise, so poison the row
    // here instead — inv = NaN turns the whole output row NaN after the
    // P@V GEMM, keeping the quarantine's all_finite checks sound.
    for (std::int64_t j = 0; j < t; ++j) srow[j] = 0.0f;
    *inv = std::numeric_limits<float>::quiet_NaN();
    return;
  }
  float sum = 0.0f;
#pragma omp simd reduction(+ : sum)
  for (std::int64_t j = 0; j < t; ++j) {
    const float e = fast_expf_clamped(srow[j] - mx);
    srow[j] = e;
    sum += e;
  }
  *inv = 1.0f / sum;
}

// Four consecutive rows of softmax_row in one pass. One row's max and sum
// are serial chains of horizontal reductions; four independent chains
// overlap. Each row keeps its own reduction variable and the loop body of
// softmax_row, so every row gets the bits softmax_row gives it.
void softmax_rows4(float* s, std::int64_t t, float* inv) {
  float* r0 = s;
  float* r1 = s + t;
  float* r2 = s + 2 * t;
  float* r3 = s + 3 * t;
  float m0 = r0[0], m1 = r1[0], m2 = r2[0], m3 = r3[0];
#pragma omp simd reduction(max : m0, m1, m2, m3)
  for (std::int64_t j = 1; j < t; ++j) {
    m0 = std::max(m0, r0[j]);
    m1 = std::max(m1, r1[j]);
    m2 = std::max(m2, r2[j]);
    m3 = std::max(m3, r3[j]);
  }
  constexpr float kInf = std::numeric_limits<float>::infinity();
  if (!(m0 < kInf && m1 < kInf && m2 < kInf && m3 < kInf)) {
    for (std::int64_t r = 0; r < 4; ++r) softmax_row(s + r * t, t, inv + r);
    return;
  }
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
#pragma omp simd reduction(+ : s0, s1, s2, s3)
  for (std::int64_t j = 0; j < t; ++j) {
    const float e0 = fast_expf_clamped(r0[j] - m0);
    const float e1 = fast_expf_clamped(r1[j] - m1);
    const float e2 = fast_expf_clamped(r2[j] - m2);
    const float e3 = fast_expf_clamped(r3[j] - m3);
    r0[j] = e0;
    r1[j] = e1;
    r2[j] = e2;
    r3[j] = e3;
    s0 += e0;
    s1 += e1;
    s2 += e2;
    s3 += e3;
  }
  inv[0] = 1.0f / s0;
  inv[1] = 1.0f / s1;
  inv[2] = 1.0f / s2;
  inv[3] = 1.0f / s3;
}

/// One (batch, head) attention problem for window-sized sequences, fused:
/// the full [t, t] score matrix is one serial GEMM, the softmax runs over
/// complete rows with fast_expf (no online-softmax running statistics or
/// rescale corrections), four rows per pass, and P@V is a second serial
/// GEMM writing straight into the strided output with the 1/rowsum
/// normalization folded into a final in-place row scale. Compared to the
/// tiled streaming path this halves the GEMM-call count at window sizes,
/// drops the correction passes, and swaps std::exp for the vectorizable
/// polynomial exp — the register-tiled GEMM kernel is kept because it
/// outruns any plain loop nest by a wide margin even at dh = 8. Serial by
/// design — the caller parallelizes over (batch, head).
void fused_head_forward(const float* q, const float* k, std::int64_t ldqk,
                        const float* v, std::int64_t ldv, std::int64_t t,
                        std::int64_t dh, float scale, float* out,
                        std::int64_t ldo) {
  ScratchArena& arena = ScratchArena::for_current_thread();
  ScratchArena::Scope scope(arena);
  float* s = arena.alloc_floats(t * t);
  float* inv = arena.alloc_floats(t);

  // s = scale * Q @ K^T   (t x t)
  gemm_serial(false, true, t, t, dh, scale, q, ldqk, k, ldqk, 0.0f, s, t);

  std::int64_t i = 0;
  for (; i + 4 <= t; i += 4) softmax_rows4(s + i * t, t, inv + i);
  for (; i < t; ++i) softmax_row(s + i * t, t, inv + i);

  // out = P @ V  (t x dh), unnormalized; then scale each row by 1/rowsum.
  gemm_serial(false, false, t, dh, t, 1.0f, s, t, v, ldv, 0.0f, out, ldo);
  for (std::int64_t r = 0; r < t; ++r) {
    float* dst = out + r * ldo;
    for (std::int64_t d = 0; d < dh; ++d) dst[d] *= inv[r];
  }
}

// Ctx slot: post-RoPE q/k, raw v, and the softmax probabilities.
struct AttnCache {
  Tensor q, k, v;  // [B,T,C]
  Tensor probs;    // [B,H,T,T]
};

/// One (batch, head) attention problem without cached probabilities:
/// out[qi, :] = softmax(scale * q @ k^T)[qi, :] @ v, computed blockwise
/// over keys with an online softmax so no [T, T] buffer ever exists. All
/// GEMMs are serial — the caller parallelizes over (batch, head).
void streaming_head_forward(const float* q, const float* k, std::int64_t ldqk,
                            const float* v, std::int64_t ldv, std::int64_t t,
                            std::int64_t dh, float scale, float* out,
                            std::int64_t ldo) {
  ScratchArena& arena = ScratchArena::for_current_thread();
  ScratchArena::Scope scope(arena);
  const std::int64_t qb_max = std::min(kQBlock, t);
  const std::int64_t kb_max = std::min(kKBlock, t);
  float* s = arena.alloc_floats(qb_max * kb_max);       // score/prob tile
  float* oacc = arena.alloc_floats(qb_max * dh);        // unnormalized out
  float* row_max = arena.alloc_floats(qb_max);          // running max
  float* row_sum = arena.alloc_floats(qb_max);          // running denom

  for (std::int64_t q0 = 0; q0 < t; q0 += qb_max) {
    const std::int64_t qb = std::min(qb_max, t - q0);
    for (std::int64_t i = 0; i < qb; ++i) {
      row_max[i] = -std::numeric_limits<float>::infinity();
      row_sum[i] = 0.0f;
    }
    for (std::int64_t i = 0; i < qb * dh; ++i) oacc[i] = 0.0f;

    for (std::int64_t k0 = 0; k0 < t; k0 += kb_max) {
      const std::int64_t kb = std::min(kb_max, t - k0);
      // s = scale * Q_blk @ K_blk^T   (qb x kb)
      gemm_serial(false, true, qb, kb, dh, scale, q + q0 * ldqk, ldqk,
                  k + k0 * ldqk, ldqk, 0.0f, s, kb_max);
      // Online softmax update per row.
      for (std::int64_t i = 0; i < qb; ++i) {
        float* srow = s + i * kb_max;
        float blk_max = srow[0];
        for (std::int64_t j = 1; j < kb; ++j) {
          blk_max = std::max(blk_max, srow[j]);
        }
        const float new_max = std::max(row_max[i], blk_max);
        const float corr =
            row_sum[i] == 0.0f ? 0.0f : std::exp(row_max[i] - new_max);
        row_max[i] = new_max;
        float part = 0.0f;
        for (std::int64_t j = 0; j < kb; ++j) {
          srow[j] = std::exp(srow[j] - new_max);
          part += srow[j];
        }
        row_sum[i] = row_sum[i] * corr + part;
        if (corr != 1.0f) {
          float* orow = oacc + i * dh;
          for (std::int64_t d = 0; d < dh; ++d) orow[d] *= corr;
        }
      }
      // oacc += P_blk @ V_blk   (qb x dh)
      gemm_serial(false, false, qb, dh, kb, 1.0f, s, kb_max, v + k0 * ldv,
                  ldv, 1.0f, oacc, dh);
    }
    for (std::int64_t i = 0; i < qb; ++i) {
      const float inv = 1.0f / row_sum[i];
      float* dst = out + (q0 + i) * ldo;
      const float* orow = oacc + i * dh;
      for (std::int64_t d = 0; d < dh; ++d) dst[d] = orow[d] * inv;
    }
  }
}

/// The inference attention kernel behind both entry points: b windows of
/// t tokens, q/k/v rows read in place at row stride `ld` (3C straight out
/// of WindowAttention's qkv GEMM, C for separate tensors), out rows written
/// at stride `ldo`. With a RoPE table (table() rows of `rope`), each task
/// rotates its head's q and k rows into its arena first, so no rotated
/// copy of the whole tensor exists. Parallel over the independent
/// (window, head) problems; each chunk uses only its own thread's arena
/// and serial kernels, and a problem's bits do not depend on the strides.
void attention_infer(const float* q, const float* k, const float* v,
                     std::int64_t ld, float* out, std::int64_t ldo,
                     std::int64_t b, std::int64_t t, std::int64_t heads,
                     std::int64_t dh, const AxialRope* rope,
                     const float* rope_table) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  parallel_for(b * heads, [&](std::int64_t h0, std::int64_t h1) {
    for (std::int64_t bh = h0; bh < h1; ++bh) {
      const std::int64_t off = bh / heads * t * ld + bh % heads * dh;
      float* o = out + bh / heads * t * ldo + bh % heads * dh;
      ScratchArena& arena = ScratchArena::for_current_thread();
      ScratchArena::Scope scope(arena);
      const float* qh = q + off;
      const float* kh = k + off;
      std::int64_t ldqk = ld;
      if (rope != nullptr) {
        float* qr = arena.alloc_floats(t * dh);
        float* kr = arena.alloc_floats(t * dh);
        for (std::int64_t tok = 0; tok < t; ++tok) {
          const float* cs = rope_table + tok * dh;
          rope->rotate(qh + tok * ld, qr + tok * dh, cs);
          rope->rotate(kh + tok * ld, kr + tok * dh, cs);
        }
        qh = qr;
        kh = kr;
        ldqk = dh;
      }
      if (t <= kFusedMaxT) {
        fused_head_forward(qh, kh, ldqk, v + off, ld, t, dh, scale, o, ldo);
      } else {
        streaming_head_forward(qh, kh, ldqk, v + off, ld, t, dh, scale, o,
                               ldo);
      }
    }
  });
}

}  // namespace

Tensor attention_core_forward(const Tensor& q, const Tensor& k,
                              const Tensor& v, std::int64_t heads,
                              Tensor* probs_out) {
  if (q.ndim() != 3 || q.shape() != k.shape() || q.shape() != v.shape()) {
    throw std::invalid_argument("attention_core: q/k/v must match [B,T,C]");
  }
  const std::int64_t b = q.dim(0), t = q.dim(1), c = q.dim(2);
  if (c % heads != 0) throw std::invalid_argument("attention_core: C % H != 0");
  const std::int64_t dh = c / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  Tensor out({b, t, c});

  if (probs_out == nullptr) {
    // Inference/sampling path: no [B,H,T,T] tensor.
    attention_infer(q.data(), k.data(), v.data(), c, out.data(), c, b, t,
                    heads, dh, nullptr, nullptr);
    return out;
  }

  // Training path: materialize softmax probabilities for the backward pass,
  // writing scores directly into the output tensor (no per-head softmax or
  // score temporaries).
  *probs_out = Tensor({b, heads, t, t});
  for (std::int64_t bb = 0; bb < b; ++bb) {
    for (std::int64_t h = 0; h < heads; ++h) {
      const float* qp = q.data() + bb * t * c + h * dh;
      const float* kp = k.data() + bb * t * c + h * dh;
      const float* vp = v.data() + bb * t * c + h * dh;
      float* probs = probs_out->data() + (bb * heads + h) * t * t;
      gemm(false, true, t, t, dh, scale, qp, c, kp, c, 0.0f, probs, t);
      softmax_rows_inplace(probs, t, t);
      gemm(false, false, t, dh, t, 1.0f, probs, t, vp, c, 0.0f,
           out.data() + bb * t * c + h * dh, c);
    }
  }
  return out;
}

void attention_core_backward(const Tensor& q, const Tensor& k, const Tensor& v,
                             const Tensor& probs, const Tensor& dout,
                             std::int64_t heads, Tensor& dq, Tensor& dk,
                             Tensor& dv) {
  const std::int64_t b = q.dim(0), t = q.dim(1), c = q.dim(2);
  const std::int64_t dh = c / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  dq = Tensor(q.shape());
  dk = Tensor(k.shape());
  dv = Tensor(v.shape());
  Tensor dprobs({t, t});
  for (std::int64_t bb = 0; bb < b; ++bb) {
    for (std::int64_t h = 0; h < heads; ++h) {
      const float* qp = q.data() + bb * t * c + h * dh;
      const float* kp = k.data() + bb * t * c + h * dh;
      const float* vp = v.data() + bb * t * c + h * dh;
      const float* dop = dout.data() + bb * t * c + h * dh;
      Tensor p({t, t});
      std::copy_n(probs.data() + (bb * heads + h) * t * t, t * t, p.data());
      gemm(false, true, t, t, dh, 1.0f, dop, c, vp, c, 0.0f, dprobs.data(), t);
      gemm(true, false, t, dh, t, 1.0f, p.data(), t, dop, c, 0.0f,
           dv.data() + bb * t * c + h * dh, c);
      Tensor dscores = softmax_lastdim_backward(p, dprobs);
      gemm(false, false, t, dh, t, scale, dscores.data(), t, kp, c, 0.0f,
           dq.data() + bb * t * c + h * dh, c);
      gemm(true, false, t, dh, t, scale, dscores.data(), t, qp, c, 0.0f,
           dk.data() + bb * t * c + h * dh, c);
    }
  }
}

WindowAttention::WindowAttention(std::string name, std::int64_t dim,
                                 std::int64_t num_heads, std::int64_t win_h,
                                 std::int64_t win_w, float rope_base)
    : dim_(dim),
      heads_(num_heads),
      win_h_(win_h),
      win_w_(win_w),
      qkv_(name + ".qkv", dim, 3 * dim, /*bias=*/true),
      proj_(name + ".proj", dim, dim, /*bias=*/true),
      rope_(dim / num_heads, rope_base),
      coords_(window_coords(0, 0, win_h, win_w, win_h, win_w)),
      rope_table_(rope_.table(coords_)) {
  if (dim % num_heads != 0) {
    throw std::invalid_argument("WindowAttention: dim % heads != 0");
  }
}

void WindowAttention::init(const Philox& rng, std::uint64_t index) {
  qkv_.init(rng, index * 4 + 0);
  proj_.init(rng, index * 4 + 1);
}

Tensor WindowAttention::forward(const Tensor& x, FwdCtx& ctx) const {
  const std::int64_t t = tokens();
  if (x.ndim() != 3 || x.dim(1) != t || x.dim(2) != dim_) {
    throw std::invalid_argument("WindowAttention: expected [B," +
                                std::to_string(t) + "," + std::to_string(dim_) +
                                "], got " + shape_to_string(x.shape()));
  }
  Tensor qkv = qkv_.forward(x, ctx);  // [B, T, 3C]

  if (ctx.inference()) {
    // q/k/v are read in place from the qkv rows and rotated per task:
    // nothing retained, no q/k/v copies, no [B,H,T,T] materialization.
    const std::int64_t b = x.dim(0);
    Tensor attn_out({b, t, dim_});
    attention_infer(qkv.data(), qkv.data() + dim_, qkv.data() + 2 * dim_,
                    3 * dim_, attn_out.data(), dim_, b, t, heads_, head_dim(),
                    &rope_, rope_table_.data());
    return proj_.forward(attn_out, ctx);
  }

  AttnCache& cache = ctx.slot<AttnCache>(id_);
  cache.q = slice(qkv, 2, 0, dim_);
  cache.k = slice(qkv, 2, dim_, 2 * dim_);
  cache.v = slice(qkv, 2, 2 * dim_, 3 * dim_);
  rope_.apply(cache.q, heads_, coords_);
  rope_.apply(cache.k, heads_, coords_);

  Tensor attn_out =
      attention_core_forward(cache.q, cache.k, cache.v, heads_, &cache.probs);
  return proj_.forward(attn_out, ctx);
}

Tensor WindowAttention::backward(const Tensor& dy, FwdCtx& ctx) {
  AttnCache* cache = ctx.find<AttnCache>(id_);
  if (cache == nullptr || cache->q.empty()) {
    throw std::logic_error("WindowAttention: backward before forward");
  }
  Tensor dattn = proj_.backward(dy, ctx);  // [B, T, C]

  Tensor dq, dk, dv;
  attention_core_backward(cache->q, cache->k, cache->v, cache->probs, dattn,
                          heads_, dq, dk, dv);

  // Undo the rotation: RoPE is orthogonal, gradient = inverse rotation.
  rope_.apply(dq, heads_, coords_, /*inverse=*/true);
  rope_.apply(dk, heads_, coords_, /*inverse=*/true);

  const Tensor* parts[] = {&dq, &dk, &dv};
  Tensor dqkv = concat(std::span<const Tensor* const>(parts, 3), 2);
  return qkv_.backward(dqkv, ctx);
}

void WindowAttention::collect_params(ParamList& out) {
  qkv_.collect_params(out);
  proj_.collect_params(out);
}

void WindowAttention::collect_params(ConstParamList& out) const {
  qkv_.collect_params(out);
  proj_.collect_params(out);
}

}  // namespace aeris::nn
