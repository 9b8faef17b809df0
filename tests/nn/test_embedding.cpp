#include "aeris/nn/embedding.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "aeris/tensor/ops.hpp"

namespace aeris::nn {
namespace {

TEST(PosEnc2D, ShapeAndBoundedAmplitude) {
  Tensor pe = sinusoidal_posenc_2d(16, 32, 4, 0.1f);
  EXPECT_EQ(pe.shape(), (Shape{16, 32}));
  EXPECT_LE(max_abs(pe), 0.1f + 1e-6f);
}

TEST(PosEnc2D, VariesInBothAxes) {
  Tensor pe = sinusoidal_posenc_2d(8, 8);
  bool row_varies = false, col_varies = false;
  for (std::int64_t r = 1; r < 8; ++r) {
    row_varies = row_varies || std::fabs(pe.at2(r, 3) - pe.at2(0, 3)) > 1e-6f;
  }
  for (std::int64_t c = 1; c < 8; ++c) {
    col_varies = col_varies || std::fabs(pe.at2(3, c) - pe.at2(3, 0)) > 1e-6f;
  }
  EXPECT_TRUE(row_varies);
  EXPECT_TRUE(col_varies);
}

TEST(PosEnc2D, DeterministicAcrossCalls) {
  EXPECT_TRUE(sinusoidal_posenc_2d(8, 8).allclose(sinusoidal_posenc_2d(8, 8)));
}

TEST(SinFeatures, ShapeAndRange) {
  Tensor f = sinusoidal_features(0.7f, 16);
  EXPECT_EQ(f.shape(), (Shape{16}));
  for (float v : f.flat()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
  EXPECT_THROW(sinusoidal_features(0.1f, 7), std::invalid_argument);
}

TEST(SinFeatures, DistinguishesTimes) {
  Tensor a = sinusoidal_features(0.1f, 32);
  Tensor b = sinusoidal_features(1.2f, 32);
  EXPECT_FALSE(a.allclose(b, 1e-3f));
}

TEST(TimeEmbedding, ShapeAndDeterminism) {
  TimeEmbedding emb("t", 16, 8);
  Philox rng(1);
  emb.init(rng, 0);
  Tensor t = Tensor::from({0.2f, 1.0f});
  FwdCtx ctx;
  Tensor c1 = emb.forward(t, ctx);
  Tensor c2 = emb.forward(t, ctx);
  EXPECT_EQ(c1.shape(), (Shape{2, 8}));
  EXPECT_TRUE(c1.allclose(c2));
}

TEST(TimeEmbedding, DifferentTimesGiveDifferentConditioning) {
  TimeEmbedding emb("t", 16, 8);
  Philox rng(2);
  emb.init(rng, 0);
  FwdCtx ctx;
  Tensor c = emb.forward(Tensor::from({0.1f, 1.4f}), ctx);
  EXPECT_FALSE(slice(c, 0, 0, 1).allclose(slice(c, 0, 1, 2), 1e-4f));
}

TEST(TimeEmbedding, BackwardAccumulatesSharedLayerGrads) {
  TimeEmbedding emb("t", 8, 4);
  Philox rng(3);
  emb.init(rng, 0);
  ParamList params;
  emb.collect_params(params);
  zero_grads(params);

  FwdCtx ctx;
  Tensor c = emb.forward(Tensor::from({0.5f}), ctx);
  Tensor dcond({1, 4}, 1.0f);
  emb.backward(dcond, ctx);
  EXPECT_GT(grad_norm(params), 0.0f);
}

TEST(TimeEmbedding, RejectsMatrixInput) {
  TimeEmbedding emb("t", 8, 4);
  FwdCtx ctx;
  EXPECT_THROW(emb.forward(Tensor({2, 2}), ctx), std::invalid_argument);
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Every row of the conditioning is computed from its own t alone: equal
// times in one batch give bitwise-equal rows, and a row matches the
// single-sample forward at that time.
TEST(TimeEmbedding, EqualTimesGiveBitwiseEqualRows) {
  TimeEmbedding emb("t", 16, 8);
  Philox rng(3);
  emb.init(rng, 0);
  FwdCtx ctx(FwdCtx::Mode::kInference);
  const Tensor c = emb.forward(Tensor::from({0.3f, 1.2f, 0.3f, 0.3f}), ctx);
  EXPECT_TRUE(same_bits(slice(c, 0, 0, 1), slice(c, 0, 2, 3)));
  EXPECT_TRUE(same_bits(slice(c, 0, 0, 1), slice(c, 0, 3, 4)));
  EXPECT_FALSE(same_bits(slice(c, 0, 0, 1), slice(c, 0, 1, 2)));
}

TEST(TimeEmbedding, BatchedRowsMatchSingleTimeForwardsBitwise) {
  TimeEmbedding emb("t", 16, 8);
  Philox rng(4);
  emb.init(rng, 0);
  const std::vector<float> times{0.05f, 0.7f, 1.5f};
  FwdCtx ctx(FwdCtx::Mode::kInference);
  const Tensor batched =
      emb.forward(Tensor({3}, std::vector<float>(times)), ctx);
  for (std::int64_t i = 0; i < 3; ++i) {
    const Tensor one =
        emb.forward(Tensor::from({times[static_cast<std::size_t>(i)]}), ctx);
    EXPECT_TRUE(same_bits(slice(batched, 0, i, i + 1), one)) << "row " << i;
  }
}

TEST(TimeEmbedding, InferenceCtxRetainsNothingAndBackwardThrows) {
  TimeEmbedding emb("t", 16, 8);
  Philox rng(5);
  emb.init(rng, 0);
  const Tensor t = Tensor::from({0.4f, 0.9f});
  FwdCtx infer(FwdCtx::Mode::kInference);
  const Tensor c = emb.forward(t, infer);
  EXPECT_EQ(infer.slot_count(), 0u);
  EXPECT_THROW(emb.backward(c, infer), std::logic_error);

  FwdCtx train;
  EXPECT_TRUE(same_bits(emb.forward(t, train), c));
  EXPECT_GT(train.slot_count(), 0u);
}

}  // namespace
}  // namespace aeris::nn
