#pragma once

#include <functional>
#include <span>

#include "aeris/core/edm.hpp"
#include "aeris/core/trigflow.hpp"

namespace aeris::core {

/// Network evaluation closed over the conditioning (previous state and
/// forcings): for TrigFlow it returns the *velocity* sigma_d * F(x/sigma_d, t);
/// for EDM it returns the raw network output F(x_in, c_noise).
using DenoiserFn = std::function<Tensor(const Tensor& x, float t)>;

/// TrigFlow probability-flow ODE sampler (paper §VI-B "Inference"):
/// a second-order, two-stage (midpoint, DPMSolver++(2S)-class) solver with
/// a log-uniform schedule in t matching the training prior, plus a
/// trigonometric Langevin-like churn that temporarily re-noises the state
/// to improve sample quality and ensemble spread.
struct TrigSamplerConfig {
  int steps = 10;          ///< ODE steps (paper: 10)
  float churn = 0.0f;      ///< fraction of each step re-noised (0 = plain ODE)
  float sigma_min = 0.02f; ///< inference schedule bounds (tan t range)
  float sigma_max = 80.0f;
};

/// Integrates the PF-ODE from pure noise to a sample. `member` selects the
/// ensemble member: all stochastic draws are keyed by (member, step) in
/// the counter RNG, so ensembles are reproducible and members independent.
Tensor sample_trigflow(const DenoiserFn& velocity, const Shape& shape,
                       const TrigFlow& tf, const TrigSamplerConfig& cfg,
                       const Philox& rng, std::uint64_t member);

/// EDM / GenCast-style sampler: Karras schedule + Heun's second order
/// method over the denoised estimate D(x; sigma).
struct EdmSamplerConfig {
  int steps = 10;
};

/// Sampler family a forecaster / engine / serving request runs: the
/// multi-step DPMSolver++(2S)-class PF-ODE solvers above (teacher path),
/// or the few-step consistency sampler of a distilled student (Swift-style
/// follow-on to AERIS: 1-4 network evaluations per forecast step).
enum class SamplerKind { kDpmSolver, kConsistency };

/// Default sampler kind from AERIS_SAMPLER: unset or empty keeps
/// kDpmSolver, "consistency" selects kConsistency, and any other value
/// throws std::invalid_argument naming the variable and the value, so a
/// typo is never silently served as the teacher.
SamplerKind sampler_kind_from_env();

/// Few-step consistency sampler configuration. A consistency model maps
/// any point of the PF-ODE trajectory straight to its endpoint:
///   f(x_t, t) = cos(t) x_t - sin(t) sigma_d F(x_t / sigma_d, t),
/// so one network evaluation replaces the whole ODE integration. Multistep
/// sampling re-noises the estimate to intermediate times (fresh noise) and
/// re-applies f, trading evaluations for sample quality exactly like
/// consistency-model literature prescribes.
struct ConsistencySamplerConfig {
  int steps = 2;           ///< network evaluations per sample (1-4 typical)
  float sigma_min = 0.02f; ///< re-noising schedule bounds (tan t range)
  float sigma_max = 80.0f;
};

Tensor sample_edm(const DenoiserFn& network, const Shape& shape,
                  const Edm& edm, const EdmSamplerConfig& cfg,
                  const Philox& rng, std::uint64_t member);

/// Identifies one member's noise streams in a batched solve: `seed` is the
/// Philox seed (per forecaster / per serving request) and `key` is the
/// serial sampler `member` argument (the forecasters use
/// member * MemberCursor::kStepsPerMember + step). Splitting the seed out
/// lets members of *different* requests — each reproducing its own serial
/// reference — share a single stacked solver call.
struct MemberKey {
  std::uint64_t seed = 0;
  std::uint64_t key = 0;
};

/// Batched samplers (cross-request stacking): E ensemble members advance
/// in lockstep through one stacked state [E, ...shape], so every solver
/// stage is a single network call over the batch dimension instead of E
/// separate calls. Slab e draws from Philox(members[e].seed) keyed by
/// members[e].key.
///
/// Bitwise-identical to E serial sample_* calls with the same seeds and
/// keys: the t/sigma schedule (and the churn rotation angle) depend only
/// on the config, never on the state, so members share them exactly;
/// every elementwise update touches each member's slab independently; and
/// the counter RNG fills member e's slab with exactly the draws the serial
/// call would produce. The network closure must preserve this by treating
/// the leading dim as a batch of independent samples (true of AerisModel
/// by construction).
///
/// `velocity`/`network` receive the stacked [E, ...shape] state and return
/// the stacked result. Returns [E, ...shape].
Tensor sample_trigflow_batched(const DenoiserFn& velocity, const Shape& shape,
                               const TrigFlow& tf, const TrigSamplerConfig& cfg,
                               std::span<const MemberKey> members);

Tensor sample_edm_batched(const DenoiserFn& network, const Shape& shape,
                          const Edm& edm, const EdmSamplerConfig& cfg,
                          std::span<const MemberKey> members);

/// The t (or sigma) schedule used by sample_trigflow, exposed for tests
/// and diagnostics: steps+1 values, strictly decreasing, last element 0.
std::vector<float> trigflow_schedule(const TrigFlow& tf,
                                     const TrigSamplerConfig& cfg);

/// Evaluation times of the few-step consistency sampler: exactly
/// cfg.steps values, strictly decreasing, starting at atan(sigma_max /
/// sigma_d). Unlike trigflow_schedule there is no trailing 0 — the
/// consistency function itself jumps to t = 0, so every entry is a network
/// evaluation time, spaced log-uniformly in sigma with spacing
/// (lmin - lmax) / steps so the last evaluation keeps a meaningful noise
/// level (steps = 2 re-noises at sqrt(sigma_max * sigma_min), not at
/// sigma_min).
std::vector<float> consistency_schedule(const TrigFlow& tf,
                                        const ConsistencySamplerConfig& cfg);

/// Few-step consistency sampling of a distilled TrigFlow student: start
/// from pure noise at t_0, apply f once, then alternate re-noising to the
/// next schedule time (fresh member-keyed noise) with another application
/// of f. `velocity` is the same closure the TrigFlow sampler takes
/// (sigma_d * F(x / sigma_d, t)); the consistency estimate is
/// cos(t) x - sin(t) velocity(x, t). Noise keying matches the other
/// samplers: all draws are (member, evaluation index) keyed in the counter
/// RNG, so members are independent and reproducible.
Tensor sample_consistency(const DenoiserFn& velocity, const Shape& shape,
                          const TrigFlow& tf,
                          const ConsistencySamplerConfig& cfg,
                          const Philox& rng, std::uint64_t member);

/// Batched variant, bitwise-identical to E serial sample_consistency
/// calls with the same seeds and keys (same contract as the batched
/// samplers above).
Tensor sample_consistency_batched(const DenoiserFn& velocity,
                                  const Shape& shape, const TrigFlow& tf,
                                  const ConsistencySamplerConfig& cfg,
                                  std::span<const MemberKey> members);

}  // namespace aeris::core
