#include "aeris/nn/attention.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "aeris/tensor/arena.hpp"
#include "aeris/tensor/ops.hpp"
#include "aeris/tensor/thread_pool.hpp"
#include "gradcheck.hpp"

namespace aeris::nn {
namespace {

WindowAttention make_attn(std::int64_t dim = 8, std::int64_t heads = 2,
                          std::int64_t wh = 2, std::int64_t ww = 2,
                          std::uint64_t seed = 1) {
  WindowAttention attn("a", dim, heads, wh, ww);
  Philox rng(seed);
  attn.init(rng, 0);
  return attn;
}

TEST(WindowAttention, OutputShapeMatchesInput) {
  WindowAttention attn = make_attn();
  Philox rng(2);
  Tensor x({3, 4, 8});
  rng.fill_normal(x, 1, 0);
  FwdCtx ctx;
  EXPECT_EQ(attn.forward(x, ctx).shape(), (Shape{3, 4, 8}));
}

TEST(WindowAttention, WindowsAreIndependent) {
  // Changing window 1's input must not change window 0's output — the
  // disjointness that Window Parallelism relies on (paper §V-A).
  WindowAttention attn = make_attn();
  Philox rng(3);
  Tensor x({2, 4, 8});
  rng.fill_normal(x, 1, 0);
  FwdCtx ctx;
  Tensor y0 = attn.forward(x, ctx);

  Tensor x2 = x;
  for (std::int64_t t = 0; t < 4; ++t) {
    for (std::int64_t c = 0; c < 8; ++c) x2.at3(1, t, c) += 5.0f;
  }
  Tensor y1 = attn.forward(x2, ctx);
  EXPECT_TRUE(slice(y0, 0, 0, 1).allclose(slice(y1, 0, 0, 1), 1e-5f));
  EXPECT_FALSE(slice(y0, 0, 1, 2).allclose(slice(y1, 0, 1, 2), 1e-3f));
}

TEST(WindowAttention, BatchOfIdenticalWindowsGivesIdenticalOutput) {
  WindowAttention attn = make_attn();
  Philox rng(4);
  Tensor one({1, 4, 8});
  rng.fill_normal(one, 1, 0);
  Tensor both = concat(one, one, 0);
  FwdCtx ctx;
  Tensor y = attn.forward(both, ctx);
  EXPECT_TRUE(slice(y, 0, 0, 1).allclose(slice(y, 0, 1, 2), 1e-5f));
}

TEST(WindowAttention, ValidatesInputShape) {
  WindowAttention attn = make_attn();
  FwdCtx ctx;
  EXPECT_THROW(attn.forward(Tensor({1, 3, 8}), ctx), std::invalid_argument);
  EXPECT_THROW(attn.forward(Tensor({1, 4, 6}), ctx), std::invalid_argument);
  EXPECT_THROW(attn.backward(Tensor({1, 4, 8}), ctx), std::logic_error);
}

TEST(WindowAttention, RejectsIndivisibleHeads) {
  EXPECT_THROW(WindowAttention("a", 10, 3, 2, 2), std::invalid_argument);
}

TEST(WindowAttention, GradCheckInput) {
  WindowAttention attn = make_attn(8, 2, 2, 2, 5);
  Philox rng(6);
  Tensor x({2, 4, 8});
  rng.fill_normal(x, 1, 0);
  Tensor dy({2, 4, 8});
  rng.fill_normal(dy, 1, 1);

  ParamList params;
  attn.collect_params(params);
  zero_grads(params);
  FwdCtx ctx;
  attn.forward(x, ctx);
  Tensor dx = attn.backward(dy, ctx);

  auto loss_of_x = [&](const Tensor& xx) {
    FwdCtx probe_ctx(FwdCtx::Mode::kInference);
    return dot(attn.forward(xx, probe_ctx), dy);
  };
  testing::expect_input_grad_close(x, dx, loss_of_x, 5e-3f, 3e-2f);
}

TEST(WindowAttention, GradCheckParams) {
  WindowAttention attn = make_attn(8, 2, 2, 2, 7);
  Philox rng(8);
  Tensor x({1, 4, 8});
  rng.fill_normal(x, 1, 0);
  Tensor dy({1, 4, 8});
  rng.fill_normal(dy, 1, 1);

  ParamList params;
  attn.collect_params(params);
  zero_grads(params);
  FwdCtx ctx;
  attn.forward(x, ctx);
  attn.backward(dy, ctx);

  auto loss = [&]() {
    FwdCtx probe_ctx(FwdCtx::Mode::kInference);
    return dot(attn.forward(x, probe_ctx), dy);
  };
  testing::expect_param_grads_close(params, loss, 5e-3f, 3e-2f, 16);
}

TEST(AttentionCore, StreamingMatchesCachedPath) {
  // The probs_out == nullptr (streaming online-softmax) path must agree
  // with the cached-probs path within FP32 tolerance, including when T
  // spans several key/query blocks.
  Philox rng(21);
  for (const std::int64_t t : {4, 33, 64, 150}) {
    const std::int64_t b = 2, heads = 3, c = 24;
    Tensor q({b, t, c}), k({b, t, c}), v({b, t, c});
    rng.fill_normal(q, 1, 0);
    rng.fill_normal(k, 1, 1);
    rng.fill_normal(v, 1, 2);
    Tensor probs;
    Tensor cached = attention_core_forward(q, k, v, heads, &probs);
    Tensor streaming = attention_core_forward(q, k, v, heads, nullptr);
    ASSERT_EQ(streaming.shape(), cached.shape());
    for (std::int64_t i = 0; i < cached.numel(); ++i) {
      ASSERT_NEAR(streaming[i], cached[i], 2e-5f) << "t=" << t << " i=" << i;
    }
  }
}

TEST(AttentionCore, StreamingNeverMaterializesProbs) {
  // Arena watermark bound: the streaming path's scratch high watermark must
  // stay far below the [B,H,T,T] probability tensor it replaces.
  const std::int64_t b = 8, t = 64, c = 32, heads = 4;
  Philox rng(22);
  Tensor q({b, t, c}), k({b, t, c}), v({b, t, c});
  rng.fill_normal(q, 1, 0);
  rng.fill_normal(k, 1, 1);
  rng.fill_normal(v, 1, 2);
  // Both calls run every (batch, head) chunk on this thread, so the arena
  // measured below is the one the warm-up grew. Pooled, this thread may
  // claim no chunk during the warm-up and first grow on the measured call.
  SerialRegionGuard serial;
  attention_core_forward(q, k, v, heads, nullptr);  // warm-up
  ScratchArena& arena = ScratchArena::for_current_thread();
  const std::size_t peak_before = arena.peak_bytes();
  const std::uint64_t blocks = arena.heap_block_count();
  attention_core_forward(q, k, v, heads, nullptr);
  // Steady state: no arena growth at all across the second call...
  EXPECT_EQ(arena.heap_block_count(), blocks);
  EXPECT_EQ(arena.peak_bytes(), peak_before);
  // ...and the total scratch watermark is a small fraction of the full
  // [B,H,T,T] softmax tensor (8*4*64*64 floats = 512 KiB).
  const std::size_t full_probs_bytes = b * heads * t * t * sizeof(float);
  EXPECT_LT(arena.peak_bytes(), full_probs_bytes / 2);
}

// Inference rows are independent of batch shape: each window of a batch
// gives the bits it gives alone, on the short full-row path and on the
// streaming tile path.
TEST(AttentionCore, BatchRowsMatchSingleWindowForwardsBitwise) {
  Philox rng(23);
  for (const std::int64_t t : {4, 150}) {
    const std::int64_t b = 3, heads = 2, c = 16;
    Tensor q({b, t, c}), k({b, t, c}), v({b, t, c});
    rng.fill_normal(q, 1, 0);
    rng.fill_normal(k, 1, 1);
    rng.fill_normal(v, 1, 2);
    const Tensor batched = attention_core_forward(q, k, v, heads);
    for (std::int64_t w = 0; w < b; ++w) {
      const Tensor one =
          attention_core_forward(slice(q, 0, w, w + 1), slice(k, 0, w, w + 1),
                                 slice(v, 0, w, w + 1), heads);
      const Tensor row = slice(batched, 0, w, w + 1);
      ASSERT_EQ(row.shape(), one.shape());
      EXPECT_EQ(std::memcmp(row.data(), one.data(),
                            sizeof(float) * static_cast<std::size_t>(
                                                one.numel())),
                0)
          << "t=" << t << " window " << w;
    }
  }
}

TEST(WindowAttention, InferenceCtxMatchesTrainingForward) {
  WindowAttention attn = make_attn(16, 4, 4, 4, 23);
  Philox rng(24);
  Tensor x({3, 16, 16});
  rng.fill_normal(x, 1, 0);
  FwdCtx train_ctx;
  Tensor train_y = attn.forward(x, train_ctx);
  FwdCtx infer_ctx(FwdCtx::Mode::kInference);
  Tensor infer_y = attn.forward(x, infer_ctx);
  // The inference ctx retains no activations at all.
  EXPECT_EQ(infer_ctx.slot_count(), 0u);
  EXPECT_GT(train_ctx.slot_count(), 0u);
  ASSERT_EQ(infer_y.shape(), train_y.shape());
  for (std::int64_t i = 0; i < train_y.numel(); ++i) {
    ASSERT_NEAR(infer_y[i], train_y[i], 2e-5f) << "at " << i;
  }
}

TEST(WindowAttention, BackwardUnchangedByInterleavedInference) {
  // Gradients after forward+backward must be identical whether or not an
  // inference forward (with its own ctx) ran in between — activations live
  // in the ctx, never in the layer, so concurrent calls cannot collide.
  WindowAttention attn = make_attn(8, 2, 2, 2, 25);
  Philox rng(26);
  Tensor x({2, 4, 8});
  rng.fill_normal(x, 1, 0);
  Tensor dy({2, 4, 8});
  rng.fill_normal(dy, 1, 1);

  WindowAttention a1 = attn;
  ParamList p1;
  a1.collect_params(p1);
  zero_grads(p1);
  FwdCtx ctx1;
  a1.forward(x, ctx1);
  Tensor dx1 = a1.backward(dy, ctx1);

  WindowAttention a2 = attn;
  ParamList p2;
  a2.collect_params(p2);
  zero_grads(p2);
  FwdCtx ctx2;
  a2.forward(x, ctx2);
  {
    FwdCtx infer_ctx(FwdCtx::Mode::kInference);
    Tensor x2({5, 4, 8});
    Philox rng2(27);
    rng2.fill_normal(x2, 1, 0);
    a2.forward(x2, infer_ctx);  // inference forward on different data
  }
  Tensor dx2 = a2.backward(dy, ctx2);

  EXPECT_TRUE(dx1.allclose(dx2, 1e-6f));
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_TRUE(p1[i]->grad.allclose(p2[i]->grad, 1e-6f)) << p1[i]->name;
  }
}

TEST(WindowAttention, ParamCountMatchesFormula) {
  // qkv: dim*3dim + 3dim; proj: dim*dim + dim.
  WindowAttention attn = make_attn(16, 4, 2, 2);
  ParamList params;
  attn.collect_params(params);
  EXPECT_EQ(param_count(params), 16 * 48 + 48 + 16 * 16 + 16);
}

TEST(WindowAttention, NonSquareWindow) {
  WindowAttention attn("a", 8, 2, 2, 3);
  Philox rng(9);
  attn.init(rng, 0);
  Tensor x({1, 6, 8});
  rng.fill_normal(x, 1, 0);
  FwdCtx ctx;
  EXPECT_EQ(attn.forward(x, ctx).shape(), (Shape{1, 6, 8}));
}

// WindowAttention's forward in double precision, from the layer's own
// parameters: qkv projection, axial RoPE at window-local coordinates,
// softmax(q k^T / sqrt(dh)) v with std::exp, output projection.
std::vector<double> reference_forward(const WindowAttention& attn,
                                      std::int64_t win_w, const Tensor& x) {
  ConstParamList ps;
  attn.collect_params(ps);  // qkv.w [3C, C], qkv.b, proj.w [C, C], proj.b
  const std::int64_t b = x.dim(0), t = x.dim(1), c = x.dim(2);
  const std::int64_t heads = attn.num_heads(), dh = attn.head_dim();
  const std::int64_t nf = dh / 4;
  const auto linear = [](const std::vector<double>& in, std::int64_t rows,
                         std::int64_t n_in, const Param& w, const Param& bias,
                         std::int64_t n_out) {
    std::vector<double> out(static_cast<std::size_t>(rows * n_out));
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t o = 0; o < n_out; ++o) {
        double acc = bias.value[o];
        for (std::int64_t i = 0; i < n_in; ++i) {
          acc += in[static_cast<std::size_t>(r * n_in + i)] *
                 w.value[o * n_in + i];
        }
        out[static_cast<std::size_t>(r * n_out + o)] = acc;
      }
    }
    return out;
  };
  std::vector<double> xin(x.data(), x.data() + x.numel());
  std::vector<double> qkv = linear(xin, b * t, c, *ps[0], *ps[1], 3 * c);
  const auto at = [&](std::int64_t w, std::int64_t tok, std::int64_t col) {
    return &qkv[static_cast<std::size_t>((w * t + tok) * 3 * c + col)];
  };
  for (std::int64_t w = 0; w < b; ++w) {
    for (std::int64_t tok = 0; tok < t; ++tok) {
      const double pos[2] = {static_cast<double>(tok / win_w),
                             static_cast<double>(tok % win_w)};
      for (std::int64_t part = 0; part < 2; ++part) {  // q, then k
        for (std::int64_t h = 0; h < heads; ++h) {
          double* v = at(w, tok, part * c + h * dh);
          for (std::int64_t half = 0; half < 2; ++half) {
            for (std::int64_t i = 0; i < nf; ++i) {
              const double ang =
                  pos[half] * std::pow(10000.0, -2.0 * i / (dh / 2));
              double* a = v + half * 2 * nf + 2 * i;
              const double a0 = a[0], a1 = a[1];
              a[0] = a0 * std::cos(ang) - a1 * std::sin(ang);
              a[1] = a0 * std::sin(ang) + a1 * std::cos(ang);
            }
          }
        }
      }
    }
  }
  std::vector<double> attn_out(static_cast<std::size_t>(b * t * c));
  std::vector<double> p(static_cast<std::size_t>(t));
  const double scale = 1.0 / std::sqrt(static_cast<double>(dh));
  for (std::int64_t w = 0; w < b; ++w) {
    for (std::int64_t h = 0; h < heads; ++h) {
      for (std::int64_t i = 0; i < t; ++i) {
        double mx = -std::numeric_limits<double>::infinity();
        for (std::int64_t j = 0; j < t; ++j) {
          double s = 0.0;
          for (std::int64_t d = 0; d < dh; ++d) {
            s += at(w, i, h * dh + d)[0] * at(w, j, c + h * dh + d)[0];
          }
          p[static_cast<std::size_t>(j)] = s * scale;
          mx = std::max(mx, s * scale);
        }
        double sum = 0.0;
        for (double& e : p) sum += (e = std::exp(e - mx));
        for (std::int64_t d = 0; d < dh; ++d) {
          double acc = 0.0;
          for (std::int64_t j = 0; j < t; ++j) {
            acc += p[static_cast<std::size_t>(j)] *
                   at(w, j, 2 * c + h * dh + d)[0];
          }
          attn_out[static_cast<std::size_t>((w * t + i) * c + h * dh + d)] =
              acc / sum;
        }
      }
    }
  }
  return linear(attn_out, b * t, c, *ps[2], *ps[3], c);
}

// The inference kernel (q/k/v read in place from the qkv rows, RoPE from
// the layer's table, four-row softmax) against a double-precision
// reference: dh = 8 and 32, a square 8x8 window, windows whose token count
// leaves a one-row softmax tail (5x6 = 30, 3x3 = 9), and a window of more
// than 256 tokens (the streaming online-softmax path).
TEST(WindowAttention, InferenceMatchesDoubleReference) {
  struct Case {
    std::int64_t dim, heads, wh, ww;
  };
  const Case cases[] = {{16, 2, 8, 8},  {64, 2, 8, 8}, {16, 2, 5, 6},
                        {64, 2, 5, 6},  {32, 4, 3, 3}, {16, 2, 16, 17}};
  for (const Case& k : cases) {
    WindowAttention attn = make_attn(k.dim, k.heads, k.wh, k.ww, 31);
    Philox rng(32);
    Tensor x({3, k.wh * k.ww, k.dim});
    rng.fill_normal(x, 1, 0);
    FwdCtx ctx(FwdCtx::Mode::kInference);
    const Tensor y = attn.forward(x, ctx);
    const std::vector<double> ref = reference_forward(attn, k.ww, x);
    double ref_max = 0.0;
    for (double r : ref) ref_max = std::max(ref_max, std::fabs(r));
    double err = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      err = std::max(err, std::fabs(y[i] - ref[static_cast<std::size_t>(i)]));
    }
    EXPECT_LE(err, 1e-5 * ref_max)
        << "dim " << k.dim << " heads " << k.heads << " window " << k.wh
        << "x" << k.ww << ": max error " << err << " of max " << ref_max;
  }
}

// A NaN in one token reaches every output row of its window through that
// token's value row, so the serving quarantine sees the whole window
// non-finite; the other windows keep their bits.
TEST(WindowAttention, NaNTokenPoisonsOnlyItsWindow) {
  for (const std::int64_t ww : {8, 6, 34}) {  // t = 64, 30, 272
    WindowAttention attn = make_attn(16, 2, 8, ww, 33);
    const std::int64_t t = 8 * ww;
    Philox rng(34);
    Tensor x({3, t, 16});
    rng.fill_normal(x, 1, 0);
    FwdCtx ctx(FwdCtx::Mode::kInference);
    const Tensor clean = attn.forward(x, ctx);
    x.at3(1, 5, 3) = std::numeric_limits<float>::quiet_NaN();
    const Tensor y = attn.forward(x, ctx);
    const std::int64_t per_window = t * 16;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      if (i / per_window == 1) {
        ASSERT_FALSE(std::isfinite(y[i])) << "t=" << t << " at " << i;
      } else {
        ASSERT_EQ(std::memcmp(y.data() + i, clean.data() + i, sizeof(float)), 0)
            << "t=" << t << " at " << i;
      }
    }
  }
}

}  // namespace
}  // namespace aeris::nn
