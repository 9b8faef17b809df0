#include "aeris/nn/rmsnorm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "aeris/tensor/ops.hpp"
#include "gradcheck.hpp"

namespace aeris::nn {
namespace {

TEST(RMSNorm, UnitGainNormalizesRMS) {
  RMSNorm norm("n", 8);
  Philox rng(1);
  Tensor x({4, 8});
  rng.fill_normal(x, 1, 0);
  scale_(x, 3.0f);
  FwdCtx ctx;
  Tensor y = norm.forward(x, ctx);
  for (std::int64_t r = 0; r < 4; ++r) {
    double ss = 0.0;
    for (std::int64_t c = 0; c < 8; ++c) ss += y.at2(r, c) * y.at2(r, c);
    EXPECT_NEAR(std::sqrt(ss / 8), 1.0, 1e-3);
  }
}

TEST(RMSNorm, ScaleInvariance) {
  // RMSNorm(a*x) == RMSNorm(x) for a > 0 (up to eps).
  RMSNorm norm("n", 16);
  Philox rng(2);
  Tensor x({2, 16});
  rng.fill_normal(x, 1, 0);
  FwdCtx ctx;
  Tensor y1 = norm.forward(x, ctx);
  Tensor xs = scale(x, 7.3f);
  Tensor y2 = norm.forward(xs, ctx);
  EXPECT_TRUE(y1.allclose(y2, 1e-4f));
}

TEST(RMSNorm, GainScalesOutput) {
  RMSNorm norm("n", 4);
  norm.gain().value = Tensor::from({2, 2, 2, 2});
  Tensor x({1, 4}, std::vector<float>{1, 1, 1, 1});
  FwdCtx ctx;
  Tensor y = norm.forward(x, ctx);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_NEAR(y[i], 2.0f, 1e-4f);
}

TEST(RMSNorm, ApplyEqualsForward) {
  RMSNorm norm("n", 8);
  Philox rng(3);
  Tensor x({3, 8});
  rng.fill_normal(x, 1, 1);
  FwdCtx ctx;
  EXPECT_TRUE(norm.apply(x).allclose(norm.forward(x, ctx)));
}

TEST(RMSNorm, GradCheck) {
  RMSNorm norm("n", 6);
  Philox rng(5);
  norm.gain().value.fill(1.0f);
  // Perturb the gain so its gradient path is exercised non-trivially.
  Tensor gnoise({6});
  rng.fill_normal(gnoise, 2, 0);
  axpy_(norm.gain().value, 0.1f, gnoise);

  Tensor x({3, 6});
  rng.fill_normal(x, 1, 2);
  Tensor dy({3, 6});
  rng.fill_normal(dy, 1, 3);

  ParamList params;
  norm.collect_params(params);
  zero_grads(params);
  FwdCtx ctx;
  norm.forward(x, ctx);
  Tensor dx = norm.backward(dy, ctx);

  auto loss_of_x = [&](const Tensor& xx) { return dot(norm.apply(xx), dy); };
  testing::expect_input_grad_close(x, dx, loss_of_x, 1e-3f, 2e-2f);
  auto loss = [&]() { return dot(norm.apply(x), dy); };
  testing::expect_param_grads_close(params, loss, 1e-3f, 2e-2f);
}

TEST(RMSNorm, NonAffineHasNoParams) {
  RMSNorm norm("n", 4, /*elementwise_affine=*/false);
  ParamList params;
  norm.collect_params(params);
  EXPECT_TRUE(params.empty());
  Tensor x({1, 4}, std::vector<float>{3, 0, 0, 0});
  FwdCtx ctx;
  Tensor y = norm.forward(x, ctx);
  EXPECT_NEAR(y[0], 2.0f, 1e-3f);  // 3 / rms([3,0,0,0]) = 3/1.5
}

TEST(RMSNorm, NonAffineGradCheck) {
  RMSNorm norm("n", 5, /*elementwise_affine=*/false);
  Philox rng(7);
  Tensor x({2, 5});
  rng.fill_normal(x, 1, 0);
  Tensor dy({2, 5});
  rng.fill_normal(dy, 1, 1);
  FwdCtx ctx;
  norm.forward(x, ctx);
  Tensor dx = norm.backward(dy, ctx);
  auto loss_of_x = [&](const Tensor& xx) { return dot(norm.apply(xx), dy); };
  testing::expect_input_grad_close(x, dx, loss_of_x, 1e-3f, 2e-2f);
}

// apply() and forward() work through rows four at a time; every row must
// keep the bits of the one-row loop (double sum in column order), for
// every row count around the four-row step and with or without a gain.
TEST(RMSNorm, RowBlocksMatchOneRowReferenceBitwise) {
  for (const std::int64_t dim : {8, 128, 130}) {
    for (const bool affine : {true, false}) {
      RMSNorm norm("n", dim, affine);
      Philox rng(7);
      if (affine) rng.fill_normal(norm.gain().value, 1, 9);
      for (std::int64_t rows = 1; rows <= 9; ++rows) {
        Tensor x({rows, dim});
        rng.fill_normal(x, 3, static_cast<std::uint64_t>(rows));
        Tensor want(x.shape());
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* px = x.data() + r * dim;
          double ss = 0.0;
          for (std::int64_t c = 0; c < dim; ++c) {
            ss += static_cast<double>(px[c]) * px[c];
          }
          const float inv =
              1.0f / std::sqrt(static_cast<float>(ss / dim) + 1e-6f);
          for (std::int64_t c = 0; c < dim; ++c) {
            want.data()[r * dim + c] =
                px[c] * inv * (affine ? norm.gain().value[c] : 1.0f);
          }
        }
        FwdCtx ctx;
        const Tensor got_apply = norm.apply(x);
        const Tensor got_forward = norm.forward(x, ctx);
        const std::size_t bytes =
            sizeof(float) * static_cast<std::size_t>(x.numel());
        EXPECT_EQ(std::memcmp(got_apply.data(), want.data(), bytes), 0)
            << "dim " << dim << " rows " << rows << " affine " << affine;
        EXPECT_EQ(std::memcmp(got_forward.data(), want.data(), bytes), 0)
            << "dim " << dim << " rows " << rows << " affine " << affine;
      }
    }
  }
}

TEST(RMSNorm, ZeroInputIsFinite) {
  RMSNorm norm("n", 4);
  Tensor x({1, 4});
  FwdCtx ctx;
  Tensor y = norm.forward(x, ctx);
  for (float v : y.flat()) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace aeris::nn
