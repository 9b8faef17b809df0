#include "aeris/nn/linear.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "aeris/tensor/ops.hpp"
#include "gradcheck.hpp"

namespace aeris::nn {
namespace {

TEST(Linear, ForwardMatchesManual) {
  Linear lin("l", 2, 3);
  lin.weight().value = Tensor({3, 2}, std::vector<float>{1, 0, 0, 1, 1, 1});
  lin.bias().value = Tensor::from({0.5f, -0.5f, 0.0f});
  Tensor x({1, 2}, std::vector<float>{2, 3});
  FwdCtx ctx;
  Tensor y = lin.forward(x, ctx);
  EXPECT_TRUE(y.allclose(Tensor({1, 3}, std::vector<float>{2.5f, 2.5f, 5.0f})));
}

TEST(Linear, PreservesLeadingDims) {
  Linear lin("l", 4, 2);
  Philox rng(1);
  lin.init(rng, 0);
  Tensor x({3, 5, 4});
  rng.fill_normal(x, 1, 0);
  FwdCtx ctx;
  Tensor y = lin.forward(x, ctx);
  EXPECT_EQ(y.shape(), (Shape{3, 5, 2}));
}

TEST(Linear, ApplyEqualsForward) {
  Linear lin("l", 4, 4);
  Philox rng(3);
  lin.init(rng, 0);
  Tensor x({2, 4});
  rng.fill_normal(x, 1, 1);
  FwdCtx ctx;
  EXPECT_TRUE(lin.apply(x).allclose(lin.forward(x, ctx)));
}

TEST(Linear, RejectsBadLastDim) {
  Linear lin("l", 4, 2);
  FwdCtx ctx;
  EXPECT_THROW(lin.forward(Tensor({2, 3}), ctx), std::invalid_argument);
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Linear lin("l", 2, 2);
  FwdCtx ctx;
  EXPECT_THROW(lin.backward(Tensor({1, 2}), ctx), std::logic_error);
}

TEST(Linear, InferenceCtxRetainsNothingAndBackwardThrows) {
  Linear lin("l", 2, 2);
  Philox rng(4);
  lin.init(rng, 0);
  Tensor x({1, 2}, std::vector<float>{1, 2});
  FwdCtx ctx(FwdCtx::Mode::kInference);
  Tensor y = lin.forward(x, ctx);
  EXPECT_TRUE(y.allclose(lin.apply(x)));
  EXPECT_EQ(ctx.slot_count(), 0u);
  EXPECT_THROW(lin.backward(Tensor({1, 2}), ctx), std::logic_error);
}

TEST(Linear, GradCheckInputAndParams) {
  Linear lin("l", 3, 4);
  Philox rng(5);
  lin.init(rng, 0);
  Tensor x({2, 3});
  rng.fill_normal(x, 1, 2);
  Tensor dy({2, 4});
  rng.fill_normal(dy, 1, 3);

  ParamList params;
  lin.collect_params(params);
  zero_grads(params);

  FwdCtx ctx;
  Tensor y = lin.forward(x, ctx);
  Tensor dx = lin.backward(dy, ctx);

  auto loss_of_x = [&](const Tensor& xx) { return dot(lin.apply(xx), dy); };
  testing::expect_input_grad_close(x, dx, loss_of_x, 1e-2f, 1e-2f);

  auto loss = [&]() { return dot(lin.apply(x), dy); };
  testing::expect_param_grads_close(params, loss, 1e-2f, 1e-2f);
}

TEST(Linear, GradAccumulatesAcrossBackwardCalls) {
  Linear lin("l", 2, 2, /*bias=*/false);
  Philox rng(9);
  lin.init(rng, 0);
  Tensor x({1, 2}, std::vector<float>{1, 2});
  Tensor dy({1, 2}, std::vector<float>{1, 1});

  ParamList params;
  lin.collect_params(params);
  zero_grads(params);
  FwdCtx ctx;
  lin.forward(x, ctx);
  lin.backward(dy, ctx);
  const Tensor once = params[0]->grad;
  lin.forward(x, ctx);
  lin.backward(dy, ctx);
  Tensor twice = once;
  scale_(twice, 2.0f);
  EXPECT_TRUE(params[0]->grad.allclose(twice));
}

TEST(Linear, NoBiasHasOneParam) {
  Linear lin("l", 2, 2, /*bias=*/false);
  ParamList params;
  lin.collect_params(params);
  EXPECT_EQ(params.size(), 1u);
  EXPECT_EQ(param_count(params), 4);
}

TEST(Linear, InitDeterministicInSeedAndIndex) {
  Philox rng(7);
  Linear a("a", 8, 8), b("b", 8, 8), c("c", 8, 8);
  a.init(rng, 0);
  b.init(rng, 0);
  c.init(rng, 1);
  EXPECT_TRUE(a.weight().value.allclose(b.weight().value));
  EXPECT_FALSE(a.weight().value.allclose(c.weight().value));
}

TEST(Linear, InitZeroGivesZeroOutput) {
  Linear lin("l", 4, 4);
  lin.init_zero();
  Tensor x({2, 4}, 1.0f);
  FwdCtx ctx;
  EXPECT_FLOAT_EQ(max_abs(lin.forward(x, ctx)), 0.0f);
}

// Linear's copy operations are the implicit member-wise ones: a copy owns
// its own weight storage, forwards bitwise like its source, and an edit
// to either side never reaches the other.
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(Linear, CopyIsDeepAndForwardsIdentically) {
  Linear src("l", 5, 3);
  Philox rng(11);
  src.init(rng, 0);
  rng.fill_normal(src.bias().value, 2, 0);
  Tensor x({4, 5});
  rng.fill_normal(x, 1, 0);
  const Tensor before = src.apply(x);

  Linear copy(src);
  EXPECT_TRUE(same_bits(copy.apply(x), before));
  EXPECT_NE(copy.weight().value.data(), src.weight().value.data());

  copy.weight().value[0] += 1.0f;
  copy.bias().value[1] -= 1.0f;
  EXPECT_TRUE(same_bits(src.apply(x), before));
  EXPECT_FALSE(same_bits(copy.apply(x), before));
}

TEST(Linear, CopyAssignmentTakesTheSourceWeights) {
  Linear a("a", 4, 6), b("b", 4, 6);
  Philox rng(12);
  a.init(rng, 0);
  b.init(rng, 1);
  Tensor x({3, 4});
  rng.fill_normal(x, 1, 1);
  const Tensor want = a.apply(x);
  ASSERT_FALSE(same_bits(b.apply(x), want));

  b = a;
  EXPECT_TRUE(same_bits(b.apply(x), want));
  a.weight().value.fill(0.0f);
  EXPECT_TRUE(same_bits(b.apply(x), want));
}

}  // namespace
}  // namespace aeris::nn
