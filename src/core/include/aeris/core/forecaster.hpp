#pragma once

#include <functional>
#include <vector>

#include "aeris/core/model.hpp"
#include "aeris/core/sampler.hpp"

namespace aeris::core {

/// Provides the exogenous forcing channels (top-of-atmosphere solar
/// radiation, surface geopotential, land-sea mask — paper §VI-B) for a
/// given autoregressive step. Returns [H, W, F] tokens.
using ForcingFn = std::function<Tensor(std::int64_t step)>;

/// Diffusion parameterization used by a forecaster.
enum class Parameterization { kTrigFlow, kEdm };

/// Autoregressive ensemble forecaster (paper Fig. 1c/1d): one forecast
/// step integrates T diffusion steps to sample the *residual*
/// x_i - x_{i-1} conditioned on x_{i-1} and forcings; the output becomes
/// the initial condition of the next step. New ensemble members resample
/// the initial noise (and churn noise) through the member key.
///
/// All fields are in *standardized* token layout [H, W, V]; the data
/// module owns (un)standardization.
class DiffusionForecaster {
 public:
  DiffusionForecaster(const AerisModel& model, const TrigFlowConfig& tf,
                      const TrigSamplerConfig& sampler, std::uint64_t seed);
  /// EDM-parameterized (GenCast-like baseline) forecaster.
  DiffusionForecaster(const AerisModel& model, const EdmConfig& edm,
                      const EdmSamplerConfig& sampler, std::uint64_t seed);
  /// Few-step consistency forecaster: `model` is a distilled student (same
  /// conditioning contract as the TrigFlow teacher) and each forecast step
  /// costs `sampler.steps` network evaluations instead of a full ODE
  /// integration.
  DiffusionForecaster(const AerisModel& model, const TrigFlowConfig& tf,
                      const ConsistencySamplerConfig& sampler,
                      std::uint64_t seed);

  /// One 6h/24h forecast step: returns the next state [H, W, V].
  /// Const end to end: the model is read-only and the counter-based RNG is
  /// stateless, so concurrent calls on one forecaster are safe.
  Tensor forecast_step(const Tensor& prev, const Tensor& forcings,
                       std::uint64_t member, std::int64_t step) const;

  /// Full rollout: returns n_steps states (not including the initial
  /// condition).
  std::vector<Tensor> rollout(const Tensor& init, const ForcingFn& forcings_at,
                              std::int64_t n_steps,
                              std::uint64_t member) const;

  /// Ensemble of rollouts; result[m][s] is member m at step s.
  std::vector<std::vector<Tensor>> ensemble_rollout(
      const Tensor& init, const ForcingFn& forcings_at, std::int64_t n_steps,
      std::int64_t members) const;

  Parameterization parameterization() const { return param_; }
  /// Sampler family this forecaster runs (kConsistency iff constructed
  /// with a ConsistencySamplerConfig).
  SamplerKind sampler_kind() const { return kind_; }

 private:
  const AerisModel& model_;
  Parameterization param_;
  SamplerKind kind_ = SamplerKind::kDpmSolver;
  TrigFlow trigflow_{TrigFlowConfig{}};
  TrigSamplerConfig trig_sampler_{};
  Edm edm_{EdmConfig{}};
  EdmSamplerConfig edm_sampler_{};
  ConsistencySamplerConfig cons_sampler_{};
  Philox rng_;
};

/// Deterministic (GraphCast/FourCastNet-class) baseline: the same backbone
/// trained with MSE to predict the residual directly — exhibits the
/// blurring / under-dispersion the paper attributes to deterministic
/// methods (§IV-A). Input channels: prev + forcings (no noisy state).
class DeterministicForecaster {
 public:
  explicit DeterministicForecaster(const AerisModel& model) : model_(model) {}

  Tensor forecast_step(const Tensor& prev, const Tensor& forcings) const;
  std::vector<Tensor> rollout(const Tensor& init, const ForcingFn& forcings_at,
                              std::int64_t n_steps) const;

 private:
  const AerisModel& model_;
};

}  // namespace aeris::core
