#include "aeris/nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "aeris/tensor/ops.hpp"

namespace aeris::nn {
namespace {

TEST(LRSchedule, PaperShape) {
  LRSchedule s;  // defaults: peak 5e-4, warmup 50k, decay last 100k of 3M
  EXPECT_FLOAT_EQ(s.at(0), 0.0f);
  EXPECT_NEAR(s.at(25'000), 2.5e-4f, 1e-8f);
  EXPECT_FLOAT_EQ(s.at(50'000), 5e-4f);
  EXPECT_FLOAT_EQ(s.at(1'000'000), 5e-4f);      // constant plateau
  EXPECT_FLOAT_EQ(s.at(2'900'000), 5e-4f);      // decay start
  EXPECT_NEAR(s.at(2'950'000), 2.5e-4f, 1e-8f);  // halfway down
  EXPECT_FLOAT_EQ(s.at(3'000'000), 0.0f);
  EXPECT_FLOAT_EQ(s.at(9'999'999), 0.0f);
}

TEST(LRSchedule, MonotoneWarmup) {
  LRSchedule s;
  float prev = -1.0f;
  for (std::int64_t i = 0; i <= 50'000; i += 5'000) {
    EXPECT_GE(s.at(i), prev);
    prev = s.at(i);
  }
}

TEST(AdamW, DescendsQuadratic) {
  // Minimize ||x - 3||^2 elementwise.
  Param p("p", {4});
  p.value.fill(0.0f);
  ParamList params = {&p};
  AdamW opt(params);
  for (int step = 0; step < 600; ++step) {
    for (std::int64_t i = 0; i < 4; ++i) p.grad[i] = 2.0f * (p.value[i] - 3.0f);
    opt.step(0.05f);
  }
  // Weight decay pulls slightly below 3.
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_NEAR(p.value[i], 3.0f, 0.15f);
}

TEST(AdamW, FirstStepIsSignSGDLike) {
  Param p("p", {1});
  p.value[0] = 1.0f;
  ParamList params = {&p};
  AdamW::Options o;
  o.weight_decay = 0.0f;
  AdamW opt(params, o);
  p.grad[0] = 123.0f;  // magnitude should not matter on step 1
  opt.step(0.1f);
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f, 1e-4f);
}

TEST(AdamW, WeightDecayShrinksWithZeroGrad) {
  Param p("p", {1});
  p.value[0] = 1.0f;
  ParamList params = {&p};
  AdamW opt(params);  // wd = 0.01
  p.grad[0] = 0.0f;
  opt.step(1.0f);
  EXPECT_NEAR(p.value[0], 0.99f, 1e-5f);
}

// Master weights are fp32: a step far below one bf16 ulp (2^-7 at 1.0)
// must land in the stored value, not be rounded away.
TEST(AdamW, MasterWeightsKeepSubBf16Steps) {
  Param p("p", {2});
  p.value[0] = 1.0f;
  p.value[1] = -1.0f;
  ParamList params = {&p};
  AdamW::Options o;
  o.weight_decay = 0.0f;
  AdamW opt(params, o);
  p.grad[0] = 1.0f;
  p.grad[1] = -1.0f;
  opt.step(1e-4f);  // first AdamW step moves each weight by ~lr
  EXPECT_NEAR(p.value[0], 1.0f - 1e-4f, 1e-6f);
  EXPECT_NEAR(p.value[1], -1.0f + 1e-4f, 1e-6f);
  EXPECT_NE(p.value[0], 1.0f);
  EXPECT_NE(p.value[1], -1.0f);
}

TEST(AdamW, StepRangeUpdatesOnlyShard) {
  Param a("a", {2}), b("b", {2});
  a.value.fill(1.0f);
  b.value.fill(1.0f);
  a.grad.fill(1.0f);
  b.grad.fill(1.0f);
  ParamList params = {&a, &b};
  AdamW opt(params);
  opt.step_range(0.1f, 0, 1);  // only `a`
  EXPECT_LT(a.value[0], 1.0f);
  EXPECT_FLOAT_EQ(b.value[0], 1.0f);
  EXPECT_THROW(opt.step_range(0.1f, 1, 3), std::invalid_argument);
}

TEST(GradUtils, NormAndClip) {
  Param p("p", {2});
  p.grad = Tensor::from({3.0f, 4.0f});
  ParamList params = {&p};
  EXPECT_FLOAT_EQ(grad_norm(params), 5.0f);
  const float pre = clip_grad_norm(params, 1.0f);
  EXPECT_FLOAT_EQ(pre, 5.0f);
  EXPECT_NEAR(grad_norm(params), 1.0f, 1e-5f);
  // Clipping below threshold is a no-op.
  clip_grad_norm(params, 10.0f);
  EXPECT_NEAR(grad_norm(params), 1.0f, 1e-5f);
}

TEST(EMA, HalfLifeSemantics) {
  Param p("p", {1});
  p.value[0] = 0.0f;
  ParamList params = {&p};
  EMA ema(params, 100.0f);  // half-life of 100 images
  p.value[0] = 1.0f;
  ema.update(params, 100);  // exactly one half-life
  // shadow = 0.5 * 0 + 0.5 * 1
  EXPECT_NEAR(ema.shadow()[0][0], 0.5f, 1e-5f);

  Param q("q", {1});
  ParamList qp = {&q};
  q.value[0] = 123.0f;
  // copy_to overwrites the live value with the average.
  EMA ema2(qp, 10.0f);
  q.value[0] = 0.0f;
  ema2.copy_to(qp);
  EXPECT_FLOAT_EQ(q.value[0], 123.0f);
}

TEST(EMA, ConvergesToConstantParams) {
  Param p("p", {1});
  p.value[0] = 2.0f;
  ParamList params = {&p};
  EMA ema(params, 10.0f);
  for (int i = 0; i < 100; ++i) ema.update(params, 10);
  EXPECT_NEAR(ema.shadow()[0][0], 2.0f, 1e-4f);
}

TEST(ParamUtils, FlattenRoundTrip) {
  Param a("a", {2}), b("b", {3});
  a.value = Tensor::from({1, 2});
  b.value = Tensor::from({3, 4, 5});
  ParamList params = {&a, &b};
  auto flat = flatten_values(params);
  ASSERT_EQ(flat.size(), 5u);
  EXPECT_FLOAT_EQ(flat[4], 5.0f);
  flat[0] = 9.0f;
  unflatten_values(params, flat);
  EXPECT_FLOAT_EQ(a.value[0], 9.0f);
  EXPECT_THROW(unflatten_values(params, std::vector<float>(4)),
               std::invalid_argument);
}

}  // namespace
}  // namespace aeris::nn
