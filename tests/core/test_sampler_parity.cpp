// Batched-vs-serial sampler parity in the few-step regime: churn > 0 and
// mixed MemberKey seeds at small step counts — exactly the conditions the
// consistency sampler and a degraded server live in. Every slab of the
// stacked solve must be bitwise-identical to the serial sampler called
// with that slab's seed and member key.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "aeris/core/sampler.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

constexpr std::int64_t kN = 24;  // per-member state size

/// Nonlinear, state-dependent toy network, elementwise over the trailing
/// dims — it treats a leading batch dim as independent samples by
/// construction (the contract AerisModel provides), and elementwise float
/// math is bitwise-reproducible across serial and stacked shapes.
Tensor toy_velocity(const Tensor& x, float t) {
  Tensor v(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    v[i] = std::sin(0.3f * x[i]) - 0.1f * t * x[i];
  }
  return v;
}

/// Mixed cross-request keys: different seeds, forecaster-style
/// member * 4096 + step keys at different steps.
std::vector<MemberKey> mixed_keys() {
  return {MemberKey{7, 0}, MemberKey{42, 1 * 4096 + 3}, MemberKey{7, 2 * 4096},
          MemberKey{99, 5}};
}

void expect_slab_bitwise(const Tensor& stacked, std::size_t e,
                         const Tensor& serial, const std::string& what) {
  ASSERT_EQ(serial.numel(), kN) << what;
  ASSERT_EQ(std::memcmp(stacked.data() + static_cast<std::int64_t>(e) * kN,
                        serial.data(),
                        static_cast<std::size_t>(kN) * sizeof(float)),
            0)
      << what;
}

TEST(SamplerParity, TrigFlowChurnMixedSeedsSmallSteps) {
  TrigFlow tf(TrigFlowConfig{});
  const auto keys = mixed_keys();
  for (int steps : {1, 2, 3}) {
    TrigSamplerConfig cfg;
    cfg.steps = steps;
    cfg.churn = 0.7f;  // exercises the churn noise streams
    Tensor stacked =
        sample_trigflow_batched(toy_velocity, {kN}, tf, cfg,
                                std::span<const MemberKey>(keys));
    for (std::size_t e = 0; e < keys.size(); ++e) {
      Tensor serial = sample_trigflow(toy_velocity, {kN}, tf, cfg,
                                      Philox(keys[e].seed), keys[e].key);
      expect_slab_bitwise(stacked, e, serial,
                          "trigflow steps=" + std::to_string(steps) +
                              " slab=" + std::to_string(e));
    }
  }
}

TEST(SamplerParity, EdmMixedSeedsSmallSteps) {
  Edm edm(EdmConfig{});
  const auto keys = mixed_keys();
  for (int steps : {1, 2, 3}) {
    EdmSamplerConfig cfg;
    cfg.steps = steps;
    Tensor stacked = sample_edm_batched(toy_velocity, {kN}, edm, cfg,
                                        std::span<const MemberKey>(keys));
    for (std::size_t e = 0; e < keys.size(); ++e) {
      Tensor serial = sample_edm(toy_velocity, {kN}, edm, cfg,
                                 Philox(keys[e].seed), keys[e].key);
      expect_slab_bitwise(stacked, e, serial,
                          "edm steps=" + std::to_string(steps) +
                              " slab=" + std::to_string(e));
    }
  }
}

TEST(SamplerParity, ConsistencyMixedSeedsEveryFewStepCount) {
  TrigFlow tf(TrigFlowConfig{});
  const auto keys = mixed_keys();
  for (int steps : {1, 2, 3, 4}) {
    ConsistencySamplerConfig cfg;
    cfg.steps = steps;
    Tensor stacked =
        sample_consistency_batched(toy_velocity, {kN}, tf, cfg,
                                   std::span<const MemberKey>(keys));
    for (std::size_t e = 0; e < keys.size(); ++e) {
      Tensor serial = sample_consistency(toy_velocity, {kN}, tf, cfg,
                                         Philox(keys[e].seed), keys[e].key);
      expect_slab_bitwise(stacked, e, serial,
                          "consistency steps=" + std::to_string(steps) +
                              " slab=" + std::to_string(e));
    }
  }
}

}  // namespace
}  // namespace aeris::core
