#include "aeris/core/window.hpp"

#include <gtest/gtest.h>

#include "aeris/tensor/ops.hpp"
#include "aeris/tensor/rng.hpp"

namespace aeris::core {
namespace {

Tensor arange_tokens(std::int64_t h, std::int64_t w, std::int64_t c) {
  Tensor x({h, w, c});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  return x;
}

TEST(Roll2D, ZeroShiftIsIdentity) {
  Tensor x = arange_tokens(4, 6, 2);
  EXPECT_TRUE(roll2d(x, 0, 0).allclose(x));
  EXPECT_TRUE(roll2d(x, 4, 6).allclose(x));  // full-period shifts
}

TEST(Roll2D, ShiftMovesContent) {
  Tensor x = arange_tokens(2, 2, 1);
  // x = [[0,1],[2,3]]; roll by (1,0): rows move down.
  Tensor r = roll2d(x, 1, 0);
  EXPECT_FLOAT_EQ(r.at3(0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(r.at3(1, 0, 0), 0.0f);
}

TEST(Roll2D, NegativeShiftIsInverse) {
  Philox rng(1);
  Tensor x({6, 8, 3});
  rng.fill_normal(x, 1, 0);
  Tensor r = roll2d(roll2d(x, 2, 3), -2, -3);
  EXPECT_TRUE(r.allclose(x));
}

TEST(WindowPartition, CountAndShape) {
  EXPECT_EQ(window_count(8, 12, 4, 4), 6);
  EXPECT_THROW(window_count(8, 12, 5, 4), std::invalid_argument);
  Tensor x = arange_tokens(8, 12, 3);
  Tensor wins = window_partition(x, 4, 4, 0);
  EXPECT_EQ(wins.shape(), (Shape{6, 16, 3}));
}

TEST(WindowPartition, RowMajorWindowOrder) {
  Tensor x = arange_tokens(4, 4, 1);
  Tensor wins = window_partition(x, 2, 2, 0);
  // Window 0 is the top-left 2x2 block: tokens 0,1,4,5.
  EXPECT_FLOAT_EQ(wins.at3(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(wins.at3(0, 1, 0), 1.0f);
  EXPECT_FLOAT_EQ(wins.at3(0, 2, 0), 4.0f);
  EXPECT_FLOAT_EQ(wins.at3(0, 3, 0), 5.0f);
  // Window 1 is the top-right block: tokens 2,3,6,7.
  EXPECT_FLOAT_EQ(wins.at3(1, 0, 0), 2.0f);
  // Window 2 is the bottom-left block.
  EXPECT_FLOAT_EQ(wins.at3(2, 0, 0), 8.0f);
}

TEST(WindowPartition, ReverseRoundTripNoShift) {
  Philox rng(2);
  Tensor x({8, 16, 4});
  rng.fill_normal(x, 1, 0);
  Tensor wins = window_partition(x, 4, 4, 0);
  EXPECT_TRUE(window_reverse(wins, 8, 16, 4, 4, 0).allclose(x));
}

TEST(WindowPartition, ReverseRoundTripWithShift) {
  Philox rng(3);
  Tensor x({8, 16, 4});
  rng.fill_normal(x, 1, 0);
  for (std::int64_t shift : {1, 2, 3}) {
    Tensor wins = window_partition(x, 4, 4, shift);
    EXPECT_TRUE(window_reverse(wins, 8, 16, 4, 4, shift).allclose(x))
        << "shift " << shift;
  }
}

TEST(WindowPartition, ShiftChangesWindowContents) {
  Tensor x = arange_tokens(4, 4, 1);
  Tensor plain = window_partition(x, 2, 2, 0);
  Tensor shifted = window_partition(x, 2, 2, 1);
  EXPECT_FALSE(plain.allclose(shifted));
  // Shift by -1 rolls token (1,1)=5 into window 0 position 0.
  EXPECT_FLOAT_EQ(shifted.at3(0, 0, 0), 5.0f);
}

TEST(WindowPartition, PartitionIsAPermutation) {
  // Every element appears exactly once.
  Tensor x = arange_tokens(4, 8, 2);
  Tensor wins = window_partition(x, 2, 4, 1);
  std::vector<int> seen(static_cast<std::size_t>(x.numel()), 0);
  for (float v : wins.flat()) seen[static_cast<std::size_t>(v)]++;
  for (int s : seen) EXPECT_EQ(s, 1);
}

// The batched gather equals per-sample partitions stacked sample-major,
// matches the roll-then-partition definition, and reverses exactly.
TEST(WindowPartition, BatchMatchesPerSampleAndRolledDefinition) {
  Philox rng(5);
  const std::int64_t b = 3, h = 8, w = 16, c = 3;
  Tensor x({b, h, w, c});
  rng.fill_normal(x, 1, 0);
  for (std::int64_t shift : {0, 2, -3}) {
    Tensor wins = window_partition_batch(x, 4, 4, shift);
    ASSERT_EQ(wins.shape(), (Shape{b * 8, 16, c}));
    for (std::int64_t i = 0; i < b; ++i) {
      Tensor sample = slice(x, 0, i, i + 1).reshaped({h, w, c});
      Tensor want = window_partition(roll2d(sample, -shift, -shift), 4, 4, 0);
      Tensor got = slice(wins, 0, i * 8, (i + 1) * 8);
      EXPECT_TRUE(got.allclose(want, 0.0f)) << "shift " << shift << " b " << i;
    }
    EXPECT_TRUE(window_reverse_batch(wins, b, h, w, 4, 4, shift)
                    .allclose(x, 0.0f))
        << "shift " << shift;
  }
  EXPECT_THROW(window_reverse_batch(Tensor({8, 16, c}), b, h, w, 4, 4, 0),
               std::invalid_argument);
}

TEST(WindowReverse, ValidatesShape) {
  Tensor wins({3, 16, 2});
  EXPECT_THROW(window_reverse(wins, 8, 8, 4, 4, 0), std::invalid_argument);
}

TEST(FieldTokens, RoundTrip) {
  Philox rng(4);
  Tensor field({5, 6, 7});
  rng.fill_normal(field, 1, 0);
  Tensor tokens = field_to_tokens(field);
  EXPECT_EQ(tokens.shape(), (Shape{6, 7, 5}));
  EXPECT_TRUE(tokens_to_field(tokens).allclose(field));
  EXPECT_FLOAT_EQ(tokens.at3(2, 3, 1), field.at3(1, 2, 3));
}

}  // namespace
}  // namespace aeris::core
