#include "aeris/core/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

ModelConfig tiny_cfg() {
  ModelConfig c;
  c.h = 8;
  c.w = 8;
  c.in_channels = 5;
  c.out_channels = 2;
  c.dim = 16;
  c.depth = 2;
  c.heads = 2;
  c.ffn_hidden = 32;
  c.win_h = 4;
  c.win_w = 4;
  c.cond_dim = 16;
  c.time_features = 8;
  return c;
}

TEST(AerisModel, ForwardShape) {
  AerisModel model(tiny_cfg(), 1);
  Philox rng(1);
  Tensor x({2, 8, 8, 5});
  rng.fill_normal(x, 1, 0);
  Tensor y = model.forward(x, Tensor::from({0.3f, 1.0f}));
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 2}));
}

TEST(AerisModel, ZeroInitHeadGivesZeroOutput) {
  // The decode head is zero-initialized, so the fresh model predicts a
  // zero residual regardless of input.
  AerisModel model(tiny_cfg(), 2);
  Philox rng(2);
  Tensor x({1, 8, 8, 5});
  rng.fill_normal(x, 1, 0);
  Tensor y = model.forward(x, Tensor::from({0.5f}));
  EXPECT_FLOAT_EQ(max_abs(y), 0.0f);
}

TEST(AerisModel, AnalyticParamCountMatchesConstructed) {
  for (std::uint64_t variant = 0; variant < 3; ++variant) {
    ModelConfig c = tiny_cfg();
    c.dim = 16 + 8 * static_cast<std::int64_t>(variant);
    c.depth = 1 + static_cast<std::int64_t>(variant);
    c.ffn_hidden = 2 * c.dim;
    c.cond_dim = c.dim;
    AerisModel model(c, 0);
    EXPECT_EQ(model.param_count(), AerisModel::analytic_param_count(c))
        << "variant " << variant;
  }
}

TEST(AerisModel, DeterministicConstruction) {
  AerisModel a(tiny_cfg(), 7), b(tiny_cfg(), 7), c(tiny_cfg(), 8);
  auto fa = nn::flatten_values(a.params());
  auto fb = nn::flatten_values(b.params());
  auto fc = nn::flatten_values(c.params());
  EXPECT_EQ(fa, fb);
  EXPECT_NE(fa, fc);
}

TEST(AerisModel, ValidatesInputs) {
  AerisModel model(tiny_cfg(), 0);
  EXPECT_THROW(model.forward(Tensor({1, 8, 8, 4}), Tensor({1})),
               std::invalid_argument);
  EXPECT_THROW(model.forward(Tensor({1, 8, 8, 5}), Tensor({2})),
               std::invalid_argument);
  nn::FwdCtx ctx;
  EXPECT_THROW(model.backward(Tensor({1, 8, 8, 2}), ctx), std::logic_error);
}

TEST(AerisModel, RejectsNonTilingWindows) {
  ModelConfig c = tiny_cfg();
  c.win_w = 3;
  EXPECT_THROW(AerisModel(c, 0), std::invalid_argument);
  ModelConfig o = tiny_cfg();
  o.win_h = 5;  // odd: cannot shift by win/2 cleanly (and does not tile 8)
  EXPECT_THROW(AerisModel(o, 0), std::invalid_argument);
}

TEST(AerisModel, ShiftAlternatesAcrossLayers) {
  ModelConfig c = tiny_cfg();
  EXPECT_EQ(c.shift_for_layer(0), 0);
  EXPECT_EQ(c.shift_for_layer(1), c.win_h / 2);
  EXPECT_EQ(c.shift_for_layer(2), 0);
}

// End-to-end gradient check through embed, two Swin layers (one shifted),
// adaLN conditioning, final norm and head.
TEST(AerisModel, GradCheckEndToEnd) {
  ModelConfig c = tiny_cfg();
  c.dim = 8;
  c.ffn_hidden = 16;
  c.cond_dim = 8;
  AerisModel model(c, 3);
  Philox rng(3);
  // Give the zero-init pieces signal so all paths carry gradient.
  for (nn::Param* p : model.params()) {
    if (p->name.find("adaln") != std::string::npos ||
        p->name.find("head") != std::string::npos) {
      rng.fill_normal(p->value, 7, 0);
      scale_(p->value, 0.2f);
    }
  }

  Tensor x({1, 8, 8, 5});
  rng.fill_normal(x, 1, 0);
  Tensor t = Tensor::from({0.8f});
  Tensor dy({1, 8, 8, 2});
  rng.fill_normal(dy, 1, 1);

  nn::zero_grads(model.params());
  nn::FwdCtx ctx;
  model.forward(x, t, ctx);
  Tensor dx = model.backward(dy, ctx);

  auto loss_of_x = [&](const Tensor& xx) {
    AerisModel probe(c, 3);
    // Match the perturbed weights.
    nn::unflatten_values(probe.params(), nn::flatten_values(model.params()));
    return dot(probe.forward(xx, t), dy);
  };
  const float eps = 5e-3f;
  for (std::int64_t i = 0; i < x.numel(); i += 37) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const float fd = (loss_of_x(xp) - loss_of_x(xm)) / (2 * eps);
    EXPECT_NEAR(dx[i], fd, 3e-2f * std::max(1.0f, std::fabs(fd))) << i;
  }

  // Spot-check a few parameter gradients, including an early-layer weight
  // (exercises the full backward chain).
  nn::ParamList subset;
  for (nn::Param* p : model.params()) {
    if (p->name == "embed.weight" || p->name == "block1.ffn.gate.weight" ||
        p->name == "head.weight" || p->name == "time.shared.weight") {
      subset.push_back(p);
    }
  }
  ASSERT_EQ(subset.size(), 4u);
  for (nn::Param* p : subset) {
    const std::int64_t stride = std::max<std::int64_t>(1, p->numel() / 6);
    for (std::int64_t i = 0; i < p->numel(); i += stride) {
      const float save = p->value[i];
      p->value[i] = save + eps;
      AerisModel probe_p(c, 3);
      nn::unflatten_values(probe_p.params(), nn::flatten_values(model.params()));
      const float lp = dot(probe_p.forward(x, t), dy);
      p->value[i] = save - eps;
      AerisModel probe_m(c, 3);
      nn::unflatten_values(probe_m.params(), nn::flatten_values(model.params()));
      const float lm = dot(probe_m.forward(x, t), dy);
      p->value[i] = save;
      const float fd = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p->grad[i], fd, 3e-2f * std::max(1.0f, std::fabs(fd)))
          << p->name << " " << i;
    }
  }
}

TEST(AerisModel, BatchIndependence) {
  // Outputs for a sample are unaffected by other samples in the batch.
  AerisModel model(tiny_cfg(), 4);
  Philox rng(4);
  for (nn::Param* p : model.params()) {
    if (p->name.find("adaln") != std::string::npos ||
        p->name.find("head") != std::string::npos) {
      rng.fill_normal(p->value, 7, 0);
      scale_(p->value, 0.2f);
    }
  }
  Tensor x({2, 8, 8, 5});
  rng.fill_normal(x, 1, 0);
  Tensor t = Tensor::from({0.4f, 1.1f});
  Tensor y2 = model.forward(x, t);

  Tensor x0 = slice(x, 0, 0, 1);
  Tensor y1 = model.forward(x0, Tensor::from({0.4f}));
  EXPECT_TRUE(slice(y2, 0, 0, 1).allclose(y1, 1e-4f));
}

/// tiny_cfg() model with non-zero adaLN and head weights, so time and
/// conditioning reach the output.
AerisModel conditioned_tiny_model(std::uint64_t seed) {
  AerisModel model(tiny_cfg(), seed);
  Philox rng(seed);
  for (nn::Param* p : model.params()) {
    if (p->name.find("adaln") != std::string::npos ||
        p->name.find("head") != std::string::npos) {
      rng.fill_normal(p->value, 7, 0);
      scale_(p->value, 0.2f);
    }
  }
  return model;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// A batch may mix diffusion times: every sample is conditioned on its own
// t, bit for bit as if it ran alone, and repeated (x, t) pairs give equal
// bits.
TEST(AerisModel, PerSampleTimesMatchSingleSampleForwardsBitwise) {
  const AerisModel model = conditioned_tiny_model(5);
  Philox rng(6);
  Tensor x0({1, 8, 8, 5}), x1({1, 8, 8, 5});
  rng.fill_normal(x0, 1, 0);
  rng.fill_normal(x1, 1, 1);
  const Tensor* rows[] = {&x0, &x1, &x0};
  const Tensor x = concat(std::span<const Tensor* const>(rows, 3), 0);
  const Tensor y = model.forward(x, Tensor::from({0.3f, 1.1f, 0.3f}));

  EXPECT_TRUE(same_bits(slice(y, 0, 0, 1),
                        model.forward(x0, Tensor::from({0.3f}))));
  EXPECT_TRUE(same_bits(slice(y, 0, 1, 2),
                        model.forward(x1, Tensor::from({1.1f}))));
  EXPECT_TRUE(same_bits(slice(y, 0, 2, 3), slice(y, 0, 0, 1)));
  // Same input, another time: the conditioning must change the output.
  EXPECT_FALSE(same_bits(slice(y, 0, 0, 1),
                         model.forward(x0, Tensor::from({1.1f}))));
}

// Inference forwards keep no state between calls: a forward repeated after
// others at different times and batch sizes gives the same bits.
TEST(AerisModel, ForwardIsIndependentOfCallHistory) {
  const AerisModel model = conditioned_tiny_model(7);
  Philox rng(8);
  Tensor x({2, 8, 8, 5});
  rng.fill_normal(x, 1, 0);
  const Tensor t = Tensor::from({0.6f, 0.6f});
  const Tensor first = model.forward(x, t);

  Tensor other({3, 8, 8, 5});
  rng.fill_normal(other, 1, 1);
  (void)model.forward(other, Tensor::from({0.1f, 0.9f, 1.4f}));
  (void)model.forward(slice(x, 0, 0, 1), Tensor::from({0.2f}));
  EXPECT_TRUE(same_bits(model.forward(x, t), first));
}

TEST(AerisModel, InferenceCtxRetainsNothing) {
  const AerisModel model = conditioned_tiny_model(9);
  Philox rng(10);
  Tensor x({2, 8, 8, 5});
  rng.fill_normal(x, 1, 0);
  const Tensor t = Tensor::from({0.5f, 1.0f});
  nn::FwdCtx ctx(nn::FwdCtx::Mode::kInference);
  const Tensor y = model.forward(x, t, ctx);
  EXPECT_EQ(ctx.slot_count(), 0u);
  EXPECT_TRUE(same_bits(y, model.forward(x, t)));
}

// Frozen inference golden: FNV-1a over the bit patterns of forward()
// outputs for seeded, weight-perturbed models. Serial-vs-batched tests
// compare two paths of one build; this pins the numbers themselves, so a
// kernel change that alters both paths alike (GEMM tile shape, packing,
// accumulation order, in-place elementwise ops) still fails here. Depth 2
// runs both shift parities; E = 1..3 covers odd and even window stacks.
std::uint64_t output_hash(const Tensor& y) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::int64_t d : y.shape()) h = (h ^ static_cast<std::uint64_t>(d)) *
                                       0x100000001b3ull;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, y.data() + i, sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ull;
  }
  return h;
}

ModelConfig golden_toy_cfg() {
  ModelConfig c;
  c.h = 16;
  c.w = 16;
  c.in_channels = 12;
  c.out_channels = 5;
  c.dim = 32;
  c.depth = 2;
  c.heads = 4;
  c.ffn_hidden = 64;
  c.win_h = 8;
  c.win_w = 8;
  c.cond_dim = 32;
  return c;
}

ModelConfig golden_offline_cfg() {
  ModelConfig c = golden_toy_cfg();
  c.w = 32;
  c.dim = 128;
  c.ffn_hidden = 256;
  c.cond_dim = 64;
  return c;
}

std::uint64_t golden_forward_hash(const ModelConfig& c, std::int64_t e) {
  AerisModel model(c, 21);
  const Philox rng(21 ^ 0xA5A5A5A5ull);
  std::uint64_t stream = 100;
  for (nn::Param* p : model.params()) {
    Tensor noise(p->value.shape());
    rng.fill_normal(noise, stream++, 0);
    for (std::int64_t i = 0; i < noise.numel(); ++i) {
      p->value[i] += 0.05f * noise[i];
    }
  }
  Tensor x({e, c.h, c.w, c.in_channels});
  rng.fill_normal(x, 1, static_cast<std::uint64_t>(e));
  Tensor t({e}, 0.7f);
  return output_hash(model.forward(x, t));
}

// The hashes pin GCC's optimized AVX-512/FMA build (the default
// -O3 -march=native): inference softmax, SiLU and norm loops use
// `omp simd` reductions whose summation order follows the vector code the
// compiler emits, and sanitizer instrumentation or another ISA changes
// that code, so those builds legitimately produce other bits.
#if defined(__AVX512F__) && defined(__FMA__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_ADDRESS__) &&          \
    !defined(__SANITIZE_THREAD__)
constexpr bool kGoldenBuild = true;
#else
constexpr bool kGoldenBuild = false;
#endif

TEST(AerisModel, FrozenForwardGolden) {
  if (!kGoldenBuild) {
    GTEST_SKIP() << "hashes are recorded for the optimized GCC AVX-512 build";
  }
  struct Case {
    const char* name;
    ModelConfig cfg;
    std::int64_t e;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"toy", golden_toy_cfg(), 1, 0x2748414a0e11c33bull},
      {"toy", golden_toy_cfg(), 2, 0x118f8fef8d10d294ull},
      {"toy", golden_toy_cfg(), 3, 0x449ba84f9cb0b26aull},
      {"offline", golden_offline_cfg(), 1, 0x801e423d7db51eefull},
      {"offline", golden_offline_cfg(), 2, 0x9e8ef6d29c4182fdull},
      {"offline", golden_offline_cfg(), 3, 0x9c1cd99211caf5e1ull},
  };
  for (const Case& k : cases) {
    const std::uint64_t got = golden_forward_hash(k.cfg, k.e);
    EXPECT_EQ(got, k.hash) << k.name << " E=" << k.e << " got 0x" << std::hex
                           << got;
  }
}

}  // namespace
}  // namespace aeris::core
