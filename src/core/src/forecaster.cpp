#include "aeris/core/forecaster.hpp"

#include <stdexcept>

#include "aeris/core/cursor.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

/// Stacks [H,W,*] channel groups into a single [1,H,W,C] model input.
Tensor build_input(const Tensor& state, const Tensor& prev,
                   const Tensor& forcings) {
  const Tensor* parts[] = {&state, &prev, &forcings};
  Tensor cat = concat(std::span<const Tensor* const>(parts, 3), 2);
  return std::move(cat).reshaped({1, cat.dim(0), cat.dim(1), cat.dim(2)});
}

Tensor squeeze_batch(Tensor x) {
  return std::move(x).reshaped({x.dim(1), x.dim(2), x.dim(3)});
}

}  // namespace

DiffusionForecaster::DiffusionForecaster(const AerisModel& model,
                                         const TrigFlowConfig& tf,
                                         const TrigSamplerConfig& sampler,
                                         std::uint64_t seed)
    : model_(model),
      param_(Parameterization::kTrigFlow),
      trigflow_(tf),
      trig_sampler_(sampler),
      rng_(seed) {}

DiffusionForecaster::DiffusionForecaster(const AerisModel& model,
                                         const EdmConfig& edm,
                                         const EdmSamplerConfig& sampler,
                                         std::uint64_t seed)
    : model_(model),
      param_(Parameterization::kEdm),
      edm_(edm),
      edm_sampler_(sampler),
      rng_(seed) {}

DiffusionForecaster::DiffusionForecaster(const AerisModel& model,
                                         const TrigFlowConfig& tf,
                                         const ConsistencySamplerConfig& sampler,
                                         std::uint64_t seed)
    : model_(model),
      param_(Parameterization::kTrigFlow),
      kind_(SamplerKind::kConsistency),
      trigflow_(tf),
      cons_sampler_(sampler),
      rng_(seed) {}

Tensor DiffusionForecaster::forecast_step(const Tensor& prev,
                                          const Tensor& forcings,
                                          std::uint64_t member,
                                          std::int64_t step) const {
  if (prev.ndim() != 3) {
    throw std::invalid_argument("forecast_step: prev must be [H,W,V]");
  }
  const std::uint64_t member_key =
      member * MemberCursor::kStepsPerMember + static_cast<std::uint64_t>(step);
  // Sampling never needs backward: the const model overload runs with an
  // inference-mode ctx, so attention streams (no [B,H,T,T] probs) and no
  // layer retains activations.
  Tensor residual;
  if (param_ == Parameterization::kTrigFlow) {
    const float sd = trigflow_.config().sigma_d;
    DenoiserFn velocity = [&](const Tensor& x, float t) {
      Tensor xin = scale(x, 1.0f / sd);  // F takes x_t / sigma_d
      Tensor input = build_input(xin, prev, forcings);
      Tensor f = model_.forward(input, Tensor({1}, t));
      Tensor v = squeeze_batch(std::move(f));
      scale_(v, sd);  // velocity = sigma_d * F
      return v;
    };
    residual = kind_ == SamplerKind::kConsistency
                   ? sample_consistency(velocity, prev.shape(), trigflow_,
                                        cons_sampler_, rng_, member_key)
                   : sample_trigflow(velocity, prev.shape(), trigflow_,
                                     trig_sampler_, rng_, member_key);
  } else {
    DenoiserFn network = [&](const Tensor& xin, float t) {
      Tensor input = build_input(xin, prev, forcings);
      Tensor f = model_.forward(input, Tensor({1}, t));
      return squeeze_batch(std::move(f));
    };
    residual = sample_edm(network, prev.shape(), edm_, edm_sampler_, rng_,
                          member_key);
  }
  return add(prev, residual);
}

std::vector<Tensor> DiffusionForecaster::rollout(const Tensor& init,
                                                 const ForcingFn& forcings_at,
                                                 std::int64_t n_steps,
                                                 std::uint64_t member) const {
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(n_steps));
  Tensor state = init;
  for (std::int64_t s = 0; s < n_steps; ++s) {
    state = forecast_step(state, forcings_at(s), member, s);
    out.push_back(state);
  }
  return out;
}

std::vector<std::vector<Tensor>> DiffusionForecaster::ensemble_rollout(
    const Tensor& init, const ForcingFn& forcings_at, std::int64_t n_steps,
    std::int64_t members) const {
  std::vector<std::vector<Tensor>> out;
  out.reserve(static_cast<std::size_t>(members));
  for (std::int64_t m = 0; m < members; ++m) {
    out.push_back(rollout(init, forcings_at, n_steps,
                          static_cast<std::uint64_t>(m)));
  }
  return out;
}

Tensor DeterministicForecaster::forecast_step(const Tensor& prev,
                                              const Tensor& forcings) const {
  Tensor cat = concat(prev, forcings, 2);
  Tensor input =
      std::move(cat).reshaped({1, cat.dim(0), cat.dim(1), cat.dim(2)});
  Tensor f = model_.forward(input, Tensor({1}, 0.0f));
  Tensor residual = squeeze_batch(std::move(f));
  return add(prev, residual);
}

std::vector<Tensor> DeterministicForecaster::rollout(
    const Tensor& init, const ForcingFn& forcings_at,
    std::int64_t n_steps) const {
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(n_steps));
  Tensor state = init;
  for (std::int64_t s = 0; s < n_steps; ++s) {
    state = forecast_step(state, forcings_at(s));
    out.push_back(state);
  }
  return out;
}

}  // namespace aeris::core
