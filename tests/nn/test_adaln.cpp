#include "aeris/nn/adaln.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "aeris/tensor/ops.hpp"
#include "gradcheck.hpp"

namespace aeris::nn {
namespace {

TEST(AdaLN, ZeroInitGivesIdentityModulation) {
  AdaLNHead head("h", 8, 4);
  Tensor cond({2, 8}, 1.0f);
  FwdCtx ctx;
  auto mod = head.forward(cond, ctx);
  EXPECT_FLOAT_EQ(max_abs(mod.shift), 0.0f);
  EXPECT_FLOAT_EQ(max_abs(mod.scale), 0.0f);
  EXPECT_FLOAT_EQ(max_abs(mod.gate), 0.0f);

  Tensor x({2, 3, 4});
  Philox rng(1);
  rng.fill_normal(x, 1, 0);
  Tensor h = modulate(x, mod, 1);
  EXPECT_TRUE(h.allclose(x));  // scale=shift=0 => identity

  Tensor y({2, 3, 4});
  rng.fill_normal(y, 1, 1);
  Tensor out = apply_gate(x, y, mod.gate, 1);
  EXPECT_TRUE(out.allclose(x));  // gate=0 => residual only
}

TEST(AdaLN, ModulationBroadcastsOverWindows) {
  AdaLNHead head("h", 4, 2);
  Philox rng(2);
  ParamList params;
  head.collect_params(params);
  for (Param* p : params) rng.fill_normal(p->value, 1, 0);

  Tensor cond({1, 4});
  rng.fill_normal(cond, 1, 1);
  FwdCtx ctx;
  auto mod = head.forward(cond, ctx);

  // 3 windows of one sample all use the same modulation row.
  Tensor x({3, 2, 2});
  rng.fill_normal(x, 1, 2);
  Tensor h = modulate(x, mod, 3);
  for (std::int64_t w = 0; w < 3; ++w) {
    for (std::int64_t t = 0; t < 2; ++t) {
      for (std::int64_t c = 0; c < 2; ++c) {
        const float expect =
            x.at3(w, t, c) * (1.0f + mod.scale.at2(0, c)) + mod.shift.at2(0, c);
        EXPECT_NEAR(h.at3(w, t, c), expect, 1e-5f);
      }
    }
  }
}

TEST(AdaLN, WindowSampleMismatchThrows) {
  AdaLNHead head("h", 4, 2);
  Tensor cond({2, 4});
  FwdCtx ctx;
  auto mod = head.forward(cond, ctx);
  Tensor x({3, 2, 2});  // 3 windows not divisible into 2 samples
  EXPECT_THROW(modulate(x, mod, 1), std::invalid_argument);
}

// apply_gate writes over y, so y must have x's shape exactly.
TEST(AdaLN, GateShapeMismatchThrows) {
  Tensor x({2, 3, 4}), gate({2, 4});
  EXPECT_THROW(apply_gate(x, Tensor({2, 3, 5}), gate, 1),
               std::invalid_argument);
  EXPECT_THROW(apply_gate(x, Tensor({2, 4, 4}), gate, 1),
               std::invalid_argument);
}

// In place: the result takes over the moved-in buffer.
TEST(AdaLN, ModulateAndGateReuseTheMovedInBuffer) {
  Tensor x({2, 3, 4}, 1.0f), y({2, 3, 4}, 2.0f), gate({2, 4}, 0.5f);
  AdaLNHead::Mod mod{Tensor({2, 4}, 0.25f), Tensor({2, 4}, 1.0f), gate};
  const float* xbuf = x.data();
  Tensor h = modulate(std::move(x), mod, 1);
  EXPECT_EQ(h.data(), xbuf);
  EXPECT_FLOAT_EQ(h[0], 1.0f * (1.0f + 1.0f) + 0.25f);
  const float* ybuf = y.data();
  Tensor out = apply_gate(h, std::move(y), gate, 1);
  EXPECT_EQ(out.data(), ybuf);
  EXPECT_FLOAT_EQ(out[0], h[0] + 0.5f * 2.0f);
}

TEST(AdaLN, ModulateBackwardGradCheck) {
  Philox rng(3);
  AdaLNHead::Mod mod;
  mod.shift = Tensor({2, 3});
  mod.scale = Tensor({2, 3});
  mod.gate = Tensor({2, 3});
  rng.fill_normal(mod.shift, 1, 0);
  rng.fill_normal(mod.scale, 1, 1);

  Tensor x({4, 2, 3});
  rng.fill_normal(x, 1, 2);
  Tensor dh({4, 2, 3});
  rng.fill_normal(dh, 1, 3);

  AdaLNHead::Mod dmod;
  Tensor dx = modulate_backward(x, mod, dh, dmod, 2);

  auto loss_of_x = [&](const Tensor& xx) { return dot(modulate(xx, mod, 2), dh); };
  testing::expect_input_grad_close(x, dx, loss_of_x, 1e-3f, 1e-2f);

  // Finite-difference the scale/shift fields.
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < mod.scale.numel(); ++i) {
    AdaLNHead::Mod mp = mod, mm = mod;
    mp.scale[i] += eps;
    mm.scale[i] -= eps;
    const float fd =
        (dot(modulate(x, mp, 2), dh) - dot(modulate(x, mm, 2), dh)) / (2 * eps);
    EXPECT_NEAR(dmod.scale[i], fd, 1e-2f);
  }
  for (std::int64_t i = 0; i < mod.shift.numel(); ++i) {
    AdaLNHead::Mod mp = mod, mm = mod;
    mp.shift[i] += eps;
    mm.shift[i] -= eps;
    const float fd =
        (dot(modulate(x, mp, 2), dh) - dot(modulate(x, mm, 2), dh)) / (2 * eps);
    EXPECT_NEAR(dmod.shift[i], fd, 1e-2f);
  }
}

TEST(AdaLN, GateBackwardGradCheck) {
  Philox rng(4);
  Tensor gate({2, 3});
  rng.fill_normal(gate, 1, 0);
  Tensor x({2, 2, 3}), y({2, 2, 3}), dout({2, 2, 3});
  rng.fill_normal(x, 1, 1);
  rng.fill_normal(y, 1, 2);
  rng.fill_normal(dout, 1, 3);

  Tensor dy, dgate;
  apply_gate_backward(y, gate, dout, dy, dgate, 1);

  auto loss_of_y = [&](const Tensor& yy) {
    return dot(apply_gate(x, yy, gate, 1), dout);
  };
  testing::expect_input_grad_close(y, dy, loss_of_y, 1e-3f, 1e-2f);

  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < gate.numel(); ++i) {
    Tensor gp = gate, gm = gate;
    gp[i] += eps;
    gm[i] -= eps;
    const float fd =
        (dot(apply_gate(x, y, gp, 1), dout) - dot(apply_gate(x, y, gm, 1), dout)) /
        (2 * eps);
    EXPECT_NEAR(dgate[i], fd, 1e-2f);
  }
}

TEST(AdaLN, HeadBackwardFlowsToCond) {
  AdaLNHead head("h", 4, 3);
  Philox rng(5);
  ParamList params;
  head.collect_params(params);
  for (Param* p : params) rng.fill_normal(p->value, 1, 0);
  zero_grads(params);

  Tensor cond({2, 4});
  rng.fill_normal(cond, 1, 1);
  FwdCtx ctx;
  auto mod = head.forward(cond, ctx);

  AdaLNHead::Mod dmod;
  dmod.shift = Tensor({2, 3}, 1.0f);
  dmod.scale = Tensor({2, 3}, 0.5f);
  dmod.gate = Tensor({2, 3}, -0.5f);
  Tensor dcond = head.backward(dmod, ctx);
  EXPECT_EQ(dcond.shape(), (Shape{2, 4}));
  EXPECT_GT(max_abs(dcond), 0.0f);
  EXPECT_GT(grad_norm(params), 0.0f);
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Each modulation row depends on its own conditioning row only: repeated
// rows in one batch give bitwise-equal modulation, and every row matches
// the single-row forward.
TEST(AdaLN, HeadRowsFollowTheirOwnCondRow) {
  AdaLNHead head("h", 4, 3);
  Philox rng(6);
  ParamList params;
  head.collect_params(params);
  for (Param* p : params) rng.fill_normal(p->value, 1, 0);

  Tensor c0({1, 4}), c1({1, 4});
  rng.fill_normal(c0, 2, 0);
  rng.fill_normal(c1, 2, 1);
  const Tensor* rows[] = {&c0, &c1, &c0};
  const Tensor cond = concat(std::span<const Tensor* const>(rows, 3), 0);
  FwdCtx ctx(FwdCtx::Mode::kInference);
  const AdaLNHead::Mod mod = head.forward(cond, ctx);
  const AdaLNHead::Mod m0 = head.forward(c0, ctx);
  const AdaLNHead::Mod m1 = head.forward(c1, ctx);

  for (const auto field : {&AdaLNHead::Mod::shift, &AdaLNHead::Mod::scale,
                           &AdaLNHead::Mod::gate}) {
    const Tensor& f = mod.*field;
    EXPECT_TRUE(same_bits(slice(f, 0, 0, 1), m0.*field));
    EXPECT_TRUE(same_bits(slice(f, 0, 1, 2), m1.*field));
    EXPECT_TRUE(same_bits(slice(f, 0, 2, 3), m0.*field));
    EXPECT_FALSE(same_bits(slice(f, 0, 0, 1), slice(f, 0, 1, 2)));
  }
}

// Two samples of two windows each: window b takes modulation row b / 2.
TEST(AdaLN, ModulationPicksEachSamplesRowForItsWindows) {
  AdaLNHead::Mod mod;
  mod.shift = Tensor({2, 2}, std::vector<float>{1, 2, -1, -2});
  mod.scale = Tensor({2, 2}, std::vector<float>{0, 1, 2, 3});
  mod.gate = Tensor({2, 2}, std::vector<float>{0.5f, 0.5f, -1, 2});
  Tensor x({4, 3, 2});
  Philox rng(7);
  rng.fill_normal(x, 1, 0);
  Tensor y({4, 3, 2});
  rng.fill_normal(y, 1, 1);

  const Tensor h = modulate(x, mod, 2);
  const Tensor out = apply_gate(x, y, mod.gate, 2);
  for (std::int64_t b = 0; b < 4; ++b) {
    const std::int64_t s = b / 2;
    for (std::int64_t t = 0; t < 3; ++t) {
      for (std::int64_t c = 0; c < 2; ++c) {
        EXPECT_FLOAT_EQ(h.at3(b, t, c),
                        x.at3(b, t, c) * (1.0f + mod.scale.at2(s, c)) +
                            mod.shift.at2(s, c));
        EXPECT_FLOAT_EQ(out.at3(b, t, c),
                        x.at3(b, t, c) + mod.gate.at2(s, c) * y.at3(b, t, c));
      }
    }
  }
}

}  // namespace
}  // namespace aeris::nn
