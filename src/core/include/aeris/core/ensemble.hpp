#pragma once

#include <optional>

#include "aeris/core/forecaster.hpp"

namespace aeris::core {

/// Execution knobs for ParallelEnsembleEngine. Neither affects results:
/// every (batch, threads) combination is bitwise-identical to the serial
/// DiffusionForecaster reference.
struct EnsembleOptions {
  /// Members advanced per stacked model call (the E of one [E, H, W, C]
  /// forward). Larger batches amortize per-call overhead and feed the
  /// GEMMs taller matrices.
  std::int64_t batch = 4;
  /// Worker threads sharing the one read-only model. Each thread owns a
  /// disjoint group of member chunks and runs its kernels inline (see
  /// SerialRegionGuard), so throughput scales across members instead of
  /// within one member's kernels.
  int threads = 1;
};

/// One member's slot in a cross-request stacked solver step: the serving
/// front-end packs members of unrelated forecast requests into a single
/// [E, H, W, C] solve. `prev` is the member's current state (conditioning
/// for the residual solve), `forcings` its own forcing field, and `noise`
/// reproduces the member's serial streams — MemberCursor::noise_key()
/// (request seed, member * kStepsPerMember + step) makes slot results
/// bitwise-identical to the serial DiffusionForecaster with that seed,
/// regardless of packing.
struct MemberSlot {
  const Tensor* prev = nullptr;      ///< [H, W, V]
  const Tensor* forcings = nullptr;  ///< [H, W, F]
  MemberKey noise{};
};

/// Batched, optionally multi-threaded ensemble forecaster (the paper's
/// Fig. 1c ensemble inference, engineered for throughput): E members'
/// diffusion solves are stacked through the batch dimension so each solver
/// stage is one network call, and member groups are distributed across
/// threads that share a single read-only AerisModel.
///
/// Determinism contract: ensemble_rollout returns bitwise-identical
/// trajectories to DiffusionForecaster::ensemble_rollout constructed with
/// the same model/configs/seed, for every batch size and thread count.
/// This holds because (a) member trajectories never interact, (b) the
/// samplers' schedules are state-independent so stacked members share them
/// exactly, (c) all stochastic draws are keyed by (member, step) in the
/// counter-based RNG, and (d) every kernel computes each output row
/// independently of batch shape and thread placement.
class ParallelEnsembleEngine {
 public:
  ParallelEnsembleEngine(const AerisModel& model, const TrigFlowConfig& tf,
                         const TrigSamplerConfig& sampler, std::uint64_t seed);
  /// EDM-parameterized (GenCast-like baseline) engine.
  ParallelEnsembleEngine(const AerisModel& model, const EdmConfig& edm,
                         const EdmSamplerConfig& sampler, std::uint64_t seed);
  /// Few-step consistency engine: `model` is a distilled student and the
  /// default sampler kind is kConsistency.
  ParallelEnsembleEngine(const AerisModel& model, const TrigFlowConfig& tf,
                         const ConsistencySamplerConfig& sampler,
                         std::uint64_t seed);

  /// Ensemble of rollouts; result[m][s] is member m at step s (matching
  /// DiffusionForecaster::ensemble_rollout). `forcings_at` may be called
  /// concurrently from worker threads and must be thread-safe (a pure
  /// function of the step is ideal).
  std::vector<std::vector<Tensor>> ensemble_rollout(
      const Tensor& init, const ForcingFn& forcings_at, std::int64_t n_steps,
      std::int64_t members, const EnsembleOptions& opts = {}) const;

  /// Cross-request stacking hook (used by serving::ForecastServer, and by
  /// ensemble_rollout's own chunks): advances an arbitrary pack of members
  /// one forecast step through a single stacked solve and returns the next
  /// state per slot. Each slot carries its own conditioning and noise key,
  /// so members of different requests — different seeds, different
  /// autoregressive steps — may share the call; the solver t-schedule
  /// depends only on the config, never on the state, so it is common to
  /// the pack. `solver_steps_override > 0` substitutes the configured ODE
  /// step count (graceful-degradation mode); 0 keeps the config.
  ///
  /// Every slot is computed independently of its batch-mates (kernels
  /// split only per-member output rows and windows never span the batch
  /// dim), so a non-finite member cannot poison the others, and each
  /// slot's result is bitwise-identical to the serial forecast_step with
  /// the same seed/key/solver steps.
  ///
  /// `kind` selects the sampler family for this pack: nullopt runs the
  /// engine's default (sampler_kind()); kConsistency requires either a
  /// consistency-constructed engine or an attached student
  /// (set_consistency) and runs the few-step sampler instead of the ODE
  /// solve — the serving DegradePolicy uses exactly this to shed load
  /// before cutting members. `solver_steps_override` then overrides the
  /// consistency evaluation count instead of the ODE step count.
  std::vector<Tensor> step_pack(std::span<const MemberSlot> pack,
                                int solver_steps_override = 0,
                                std::optional<SamplerKind> kind =
                                    std::nullopt) const;

  /// Attaches a distilled student to a TrigFlow teacher engine, making
  /// kConsistency packs servable side by side with the teacher path.
  /// `student` must share the teacher's conditioning contract (in/out
  /// channels, grid); nullptr detaches (consistency packs then run the
  /// engine's own model — meaningful only if that model *is* a student).
  /// Call before sharing the engine across threads.
  /// AERIS_SAMPLER=consistency additionally makes the student the engine's
  /// *default* path (requests that don't name a sampler get the few-step
  /// solve); unset or empty leaves the teacher ODE as the default, and
  /// any other value throws std::invalid_argument.
  void set_consistency(const AerisModel* student,
                       const ConsistencySamplerConfig& cfg) {
    student_ = student;
    cons_sampler_ = cfg;
    has_consistency_ = true;
    if (param_ == Parameterization::kTrigFlow &&
        sampler_kind_from_env() == SamplerKind::kConsistency) {
      default_kind_ = SamplerKind::kConsistency;
    }
  }
  /// True when kConsistency packs are servable.
  bool has_consistency() const {
    return has_consistency_ && param_ == Parameterization::kTrigFlow;
  }
  /// Default sampler family (what nullopt `kind` resolves to).
  SamplerKind sampler_kind() const { return default_kind_; }

  Parameterization parameterization() const { return param_; }
  /// The shared read-only model (exposed so the serving layer can validate
  /// request shapes against the config).
  const AerisModel& model() const { return model_; }
  /// Configured solver steps per forecast step of the *default* sampler
  /// kind (network evaluations for a consistency-default engine).
  int solver_steps() const { return solver_steps(default_kind_); }
  /// Same, for an explicit sampler family.
  int solver_steps(SamplerKind kind) const {
    if (kind == SamplerKind::kConsistency) return cons_sampler_.steps;
    return param_ == Parameterization::kTrigFlow ? trig_sampler_.steps
                                                 : edm_sampler_.steps;
  }

 private:
  /// Advances members [m0, m0+states.size()) one forecast step in lockstep
  /// through a single stacked solve; returns the next states.
  std::vector<Tensor> step_chunk(const std::vector<Tensor>& states,
                                 const Tensor& forcings, std::int64_t m0,
                                 std::int64_t step) const;

  const AerisModel& model_;
  Parameterization param_;
  SamplerKind default_kind_ = SamplerKind::kDpmSolver;
  TrigFlow trigflow_{TrigFlowConfig{}};
  TrigSamplerConfig trig_sampler_{};
  Edm edm_{EdmConfig{}};
  EdmSamplerConfig edm_sampler_{};
  ConsistencySamplerConfig cons_sampler_{};
  const AerisModel* student_ = nullptr;  ///< consistency model; null = model_
  bool has_consistency_ = false;
  Philox rng_;
};

}  // namespace aeris::core
