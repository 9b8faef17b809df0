#pragma once

#include <span>
#include <vector>

#include "aeris/core/model.hpp"
#include "aeris/core/sampler.hpp"
#include "aeris/core/trainer.hpp"
#include "aeris/nn/optimizer.hpp"

namespace aeris::core {

/// Consistency-distillation hyper-parameters. The teacher discretization is
/// expressed as a TrigSamplerConfig because the distiller walks exactly the
/// inference schedule of the teacher sampler (trigflow_schedule): the
/// student learns to jump from any of its N+1 grid points straight to the
/// clean endpoint, which is what makes 1-4 evaluation sampling work.
struct DistillConfig {
  TrigFlowConfig trigflow{};
  /// Teacher PF-ODE discretization: `teacher.steps` intervals of the
  /// inference schedule (churn is ignored — targets are plain ODE steps).
  TrigSamplerConfig teacher{};
  LossWeights weights{};  ///< lat/var weights (defaulted if empty)
  nn::LRSchedule schedule{};
  nn::AdamW::Options adam{};
  float ema_half_life = 100'000.0f;
  float grad_clip = 0.0f;
  std::uint64_t seed = 0;
  /// Start the student from the teacher weights (standard consistency
  /// distillation; false keeps the student's own initialization).
  bool init_from_teacher = true;
};

/// Swift-style consistency distillation of a trained TrigFlow diffusion
/// model (sCM discrete-time objective over the TrigFlow parameterization).
///
/// The student shares the AerisModel architecture and the teacher's
/// conditioning contract (input = [x_t / sigma_d, prev, forcings]); it is
/// trained so that the consistency function
///   f(x_t, t) = cos(t) x_t - sin(t) sigma_d F_student(x_t / sigma_d, t)
/// maps every point of the teacher's PF-ODE trajectory to the trajectory
/// endpoint x_0. Each step draws (t, s) as adjacent times of the teacher
/// discretization, forms x_t by forward diffusion of the data residual,
/// runs ONE frozen-teacher midpoint ODE step x_t -> x_s (the same
/// two-stage update sample_trigflow uses), and regresses
///   f_student(x_t, t)  toward  stopgrad[ f_ema(x_s, s) ]
/// where f_ema is the student's own EMA (the boundary f(x, 0) = x makes
/// the target exact at s = 0, and self-consistency propagates it up the
/// trajectory). Loss and gradients reuse the Trainer's latitude/variable
/// weighting and per-sample gradient-scale machinery.
///
/// Philox contract: the stage index is drawn from
/// (kDistillStage, images_seen + i) and the diffusion noise from
/// (kDiffusionNoise, images_seen + i) — both keyed only by the global
/// sample index, so SWiPe ranks sharing the seed regenerate identical
/// draws regardless of batch partitioning, exactly like Trainer.
class ConsistencyDistiller {
 public:
  /// `student` is trained in place; `teacher` must share its architecture
  /// (same param count per tensor) and is never mutated.
  ConsistencyDistiller(AerisModel& student, const AerisModel& teacher,
                       const DistillConfig& cfg);

  /// One distillation step over a batch (AdamW + EMA, numerically guarded
  /// exactly like Trainer::train_step). Returns the consistency loss.
  float distill_step(std::span<const TrainExample> batch);

  /// Loss only (no grads, no step) — for validation curves.
  float eval_loss(std::span<const TrainExample> batch);

  std::int64_t images_seen() const { return images_seen_; }
  nn::AdamW& optimizer() { return opt_; }
  nn::EMA& ema() { return ema_; }
  const DistillConfig& config() const { return cfg_; }

  /// Teacher discretization times (steps+1 values, last 0) — exposed for
  /// tests.
  const std::vector<float>& teacher_times() const { return ts_; }

  /// Loads EMA weights into the student for inference.
  void use_ema_weights() { ema_.copy_to(student_.params()); }

 private:
  float objective_forward_backward(std::span<const TrainExample> batch,
                                   bool compute_grads);
  /// velocity(x, t) = sigma_d * F_model(x / sigma_d, t) at batch 1 for a
  /// frozen model.
  Tensor frozen_velocity(const AerisModel& model, const Tensor& x, float t,
                         const Tensor& prev, const Tensor& forcings) const;

  AerisModel& student_;
  const AerisModel& teacher_;
  AerisModel target_;  ///< EMA target network f_ema (weights refreshed per step)
  DistillConfig cfg_;
  nn::AdamW opt_;
  nn::EMA ema_;
  Philox rng_;
  std::vector<float> ts_;  ///< teacher discretization (steps+1, last 0)
  std::int64_t images_seen_ = 0;
};

}  // namespace aeris::core
