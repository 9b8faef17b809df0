#include "aeris/nn/rope.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "aeris/tensor/ops.hpp"
#include "aeris/tensor/rng.hpp"

namespace aeris::nn {
namespace {

TEST(Rope, HeadDimMustBeMultipleOf4) {
  EXPECT_THROW(AxialRope(6), std::invalid_argument);
  EXPECT_NO_THROW(AxialRope(8));
}

TEST(Rope, PreservesNorm) {
  // Rotations are orthogonal: per-head vector norms are unchanged.
  AxialRope rope(8);
  Philox rng(1);
  Tensor x({2, 4, 16});  // 2 heads of dim 8
  rng.fill_normal(x, 1, 0);
  Tensor coords = window_coords(0, 0, 2, 2, 10, 10);
  Tensor before = x;
  rope.apply(x, 2, coords);
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t t = 0; t < 4; ++t) {
      for (std::int64_t h = 0; h < 2; ++h) {
        double n0 = 0.0, n1 = 0.0;
        for (std::int64_t d = 0; d < 8; ++d) {
          const float v0 = before.at3(b, t, h * 8 + d);
          const float v1 = x.at3(b, t, h * 8 + d);
          n0 += v0 * v0;
          n1 += v1 * v1;
        }
        EXPECT_NEAR(n0, n1, 1e-4);
      }
    }
  }
}

TEST(Rope, InverseUndoesForward) {
  AxialRope rope(8);
  Philox rng(2);
  Tensor x({1, 9, 8});
  rng.fill_normal(x, 1, 0);
  Tensor orig = x;
  Tensor coords = window_coords(3, 5, 3, 3, 32, 32);
  rope.apply(x, 1, coords);
  EXPECT_FALSE(x.allclose(orig, 1e-6f));
  rope.apply(x, 1, coords, /*inverse=*/true);
  EXPECT_TRUE(x.allclose(orig, 1e-4f));
}

TEST(Rope, OriginTokenUnchanged) {
  // Token at (0,0) has zero rotation angle.
  AxialRope rope(8);
  Philox rng(3);
  Tensor x({1, 4, 8});
  rng.fill_normal(x, 1, 0);
  Tensor orig = x;
  Tensor coords = window_coords(0, 0, 2, 2, 8, 8);
  rope.apply(x, 1, coords);
  for (std::int64_t d = 0; d < 8; ++d) {
    EXPECT_NEAR(x.at3(0, 0, d), orig.at3(0, 0, d), 1e-5f);
  }
}

TEST(Rope, RelativePositionProperty) {
  // q(m) . k(n) depends only on (m - n): shifting both coordinates by a
  // constant leaves attention scores unchanged. This is the property that
  // lets windows use local coordinates under window parallelism.
  AxialRope rope(16);
  Philox rng(4);
  Tensor q({1, 4, 16}), k({1, 4, 16});
  rng.fill_normal(q, 1, 0);
  rng.fill_normal(k, 1, 1);

  auto score = [&](std::int64_t r0, std::int64_t c0) {
    Tensor qq = q, kk = k;
    Tensor coords = window_coords(r0, c0, 2, 2, 1000, 1000);
    rope.apply(qq, 1, coords);
    rope.apply(kk, 1, coords);
    // score between token 0 and token 3
    double s = 0.0;
    for (std::int64_t d = 0; d < 16; ++d) s += qq.at3(0, 0, d) * kk.at3(0, 3, d);
    return s;
  };
  EXPECT_NEAR(score(0, 0), score(7, 13), 1e-3);
  EXPECT_NEAR(score(0, 0), score(100, 350), 1e-3);
}

TEST(Rope, DistinctPositionsRotateDifferently) {
  AxialRope rope(8);
  Tensor x({1, 2, 8}, 1.0f);
  Tensor coords({2, 2}, std::vector<float>{0, 1, 1, 0});  // (0,1) and (1,0)
  rope.apply(x, 1, coords);
  // Row rotation affects first half, column rotation the second half.
  bool differ = false;
  for (std::int64_t d = 0; d < 8; ++d) {
    differ = differ || std::fabs(x.at3(0, 0, d) - x.at3(0, 1, d)) > 1e-6f;
  }
  EXPECT_TRUE(differ);
}

TEST(Rope, ValidatesShapes) {
  AxialRope rope(8);
  Tensor x({1, 4, 8});
  Tensor bad_coords({3, 2});
  EXPECT_THROW(rope.apply(x, 1, bad_coords), std::invalid_argument);
  EXPECT_THROW(rope.apply(x, 2, window_coords(0, 0, 2, 2, 4, 4)),
               std::invalid_argument);
}

// The table + rotate path the inference attention kernel uses gives the
// bits of apply(), forward and inverse, out of place and in place.
TEST(Rope, TableRotateMatchesApplyBitwise) {
  for (const std::int64_t dh : {8, 32}) {
    AxialRope rope(dh);
    Philox rng(5);
    const std::int64_t heads = 3, t = 30;
    Tensor x({2, t, heads * dh});
    rng.fill_normal(x, 1, 0);
    const Tensor coords = window_coords(7, 30, 5, 6, 32, 32);
    for (const bool inverse : {false, true}) {
      Tensor want = x;
      rope.apply(want, heads, coords, inverse);
      const std::vector<float> cs = rope.table(coords, inverse);
      ASSERT_EQ(cs.size(), static_cast<std::size_t>(t * dh));
      Tensor out(x.shape());
      Tensor in_place = x;
      for (std::int64_t row = 0; row < 2 * t; ++row) {
        const float* tab = cs.data() + (row % t) * dh;
        for (std::int64_t h = 0; h < heads; ++h) {
          const std::int64_t off = row * heads * dh + h * dh;
          rope.rotate(x.data() + off, out.data() + off, tab);
          rope.rotate(in_place.data() + off, in_place.data() + off, tab);
        }
      }
      const std::size_t bytes =
          sizeof(float) * static_cast<std::size_t>(x.numel());
      EXPECT_EQ(std::memcmp(out.data(), want.data(), bytes), 0)
          << "dh " << dh << " inverse " << inverse;
      EXPECT_EQ(std::memcmp(in_place.data(), want.data(), bytes), 0)
          << "dh " << dh << " inverse " << inverse;
    }
  }
}

TEST(WindowCoords, RowMajorAndWrapping) {
  Tensor c = window_coords(6, 6, 2, 2, 8, 8);
  EXPECT_FLOAT_EQ(c.at2(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(c.at2(0, 1), 6.0f);
  EXPECT_FLOAT_EQ(c.at2(3, 0), 7.0f);
  EXPECT_FLOAT_EQ(c.at2(3, 1), 7.0f);
  // Wrap past the boundary.
  Tensor w = window_coords(7, 7, 2, 2, 8, 8);
  EXPECT_FLOAT_EQ(w.at2(3, 0), 0.0f);
  EXPECT_FLOAT_EQ(w.at2(3, 1), 0.0f);
  // Negative origins (shifted windows) wrap too.
  Tensor n = window_coords(-1, -1, 2, 2, 8, 8);
  EXPECT_FLOAT_EQ(n.at2(0, 0), 7.0f);
}

}  // namespace
}  // namespace aeris::nn
