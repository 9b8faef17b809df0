#include "aeris/core/distill.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "aeris/tensor/numerics.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

DistillConfig with_default_weights(DistillConfig cfg, const ModelConfig& mc) {
  if (cfg.weights.lat.empty()) cfg.weights.lat = latitude_weights(mc.h);
  if (cfg.weights.var.empty()) {
    cfg.weights.var = uniform_weights(mc.out_channels);
  }
  return cfg;
}

/// Copies teacher weights into the student and returns the student
/// reference — runs in the member-init list so the copy lands before the
/// optimizer and EMA capture the student's parameter state. Full students
/// copy positionally (the two models must agree in architecture); a
/// shared-backbone student exposes only its owned head as mutable params,
/// so its (shorter) list is matched against the teacher's by name — the
/// backbone needs no copy, it *is* the teacher's storage.
AerisModel& init_student(AerisModel& student, const AerisModel& teacher,
                         const DistillConfig& cfg) {
  const nn::ParamList& sp = student.params();
  const nn::ConstParamList& tp = teacher.params();
  if (!student.shares_backbone() && sp.size() != tp.size()) {
    throw std::invalid_argument(
        "ConsistencyDistiller: student/teacher parameter lists differ");
  }
  for (std::size_t i = 0; i < sp.size(); ++i) {
    const nn::Param* src = nullptr;
    if (student.shares_backbone()) {
      for (const nn::Param* t : tp) {
        if (t->name == sp[i]->name) {
          src = t;
          break;
        }
      }
      if (src == nullptr) {
        throw std::invalid_argument(
            "ConsistencyDistiller: teacher has no parameter named '" +
            sp[i]->name + "'");
      }
    } else {
      src = tp[i];
    }
    if (sp[i]->value.numel() != src->value.numel()) {
      throw std::invalid_argument(
          "ConsistencyDistiller: shape mismatch in '" + sp[i]->name + "'");
    }
    if (cfg.init_from_teacher) {
      std::copy_n(src->value.data(), src->value.numel(),
                  sp[i]->value.data());
    }
  }
  return student;
}

/// The EMA target network mirrors the student's sharing structure: a full
/// student gets an independent full model (its whole state trails the
/// student), a shared-backbone student gets a variant aliasing the same
/// frozen backbone — only the head trails, which is exactly the state the
/// EMA shadow covers.
AerisModel make_target(const AerisModel& student) {
  if (student.shares_backbone()) {
    return AerisModel(student.config(), student);
  }
  return AerisModel(student.config());
}

/// Stacks [H,W,*] channel groups into a single [1,H,W,C] model input
/// (same assembly as DiffusionForecaster).
Tensor build_input(const Tensor& state, const Tensor& prev,
                   const Tensor& forcings) {
  const Tensor* parts[] = {&state, &prev, &forcings};
  Tensor cat = concat(std::span<const Tensor* const>(parts, 3), 2);
  return std::move(cat).reshaped({1, cat.dim(0), cat.dim(1), cat.dim(2)});
}

}  // namespace

ConsistencyDistiller::ConsistencyDistiller(AerisModel& student,
                                           const AerisModel& teacher,
                                           const DistillConfig& cfg)
    : student_(init_student(student, teacher, cfg)),
      teacher_(teacher),
      target_(make_target(student)),
      cfg_(with_default_weights(cfg, student.config())),
      opt_(student.params(), cfg.adam),
      ema_(student.params(), cfg.ema_half_life),
      rng_(cfg.seed),
      ts_(trigflow_schedule(TrigFlow(cfg.trigflow), cfg.teacher)) {
  // The EMA target network starts at the EMA shadow (= the student's
  // initial weights, i.e. the teacher's when init_from_teacher).
  ema_.copy_to(target_.params());
}

Tensor ConsistencyDistiller::frozen_velocity(const AerisModel& model,
                                             const Tensor& x, float t,
                                             const Tensor& prev,
                                             const Tensor& forcings) const {
  const float sd = cfg_.trigflow.sigma_d;
  Tensor xin = scale(x, 1.0f / sd);  // F takes x_t / sigma_d
  Tensor input = build_input(xin, prev, forcings);
  Tensor f = model.forward(input, Tensor({1}, t));
  Tensor v = std::move(f).reshaped({f.dim(1), f.dim(2), f.dim(3)});
  scale_(v, sd);  // velocity = sigma_d * F
  return v;
}

float ConsistencyDistiller::objective_forward_backward(
    std::span<const TrainExample> batch, bool compute_grads) {
  const ModelConfig& mc = student_.config();
  const std::int64_t b = static_cast<std::int64_t>(batch.size());
  if (b == 0) throw std::invalid_argument("distill_step: empty batch");
  const std::int64_t v = mc.out_channels;
  const std::int64_t per_state = mc.h * mc.w * v;
  const int n = cfg_.teacher.steps;

  const TrigFlow tf(cfg_.trigflow);
  const float sd = cfg_.trigflow.sigma_d;

  Tensor input({b, mc.h, mc.w, mc.in_channels});
  Tensor t_vec({b});
  Tensor target({b, mc.h, mc.w, v});
  // Per-sample scalar folded into residual and gradient: the consistency
  // estimate is cos(t) x_t - sin(t) sigma_d F, so the loss in f-space is
  // (sin(t) sigma_d)^2 times the loss in F-space.
  std::vector<float> grad_scale(static_cast<std::size_t>(b), 1.0f);

  for (std::int64_t i = 0; i < b; ++i) {
    const TrainExample& ex = batch[i];
    if (ex.prev.ndim() != 3 || ex.prev.dim(2) != v) {
      throw std::invalid_argument("distill_step: prev must be [H,W,V]");
    }
    // Residual target x0 = x_i - x_{i-1}, like Trainer.
    Tensor x0 = ex.target;
    sub_(x0, ex.prev);

    const std::uint64_t sample_index =
        static_cast<std::uint64_t>(images_seen_ + i);

    // Adjacent teacher discretization times t > s, drawn uniformly over
    // the n intervals, keyed only by the global sample index (SWiPe
    // shared-seed contract).
    const float u = rng_.uniform(rng_stream::kDistillStage, sample_index, 0);
    const int idx = std::min(n - 1, static_cast<int>(u * static_cast<float>(n)));
    const float t = ts_[static_cast<std::size_t>(idx)];
    const float s = ts_[static_cast<std::size_t>(idx) + 1];

    // Forward diffusion to t with the Trainer's noise keying.
    Tensor z(x0.shape());
    rng_.fill_normal(z, rng_stream::kDiffusionNoise, sample_index);
    scale_(z, sd);
    Tensor x_t = tf.interpolate(x0, z, t);

    // One frozen-teacher midpoint ODE step x_t -> x_s — the exact
    // two-stage update sample_trigflow applies at inference.
    const float t_mid = 0.5f * (t + s);
    Tensor k1 = frozen_velocity(teacher_, x_t, t, ex.prev, ex.forcings);
    Tensor x_mid = x_t;
    axpy_(x_mid, t_mid - t, k1);
    Tensor k2 =
        frozen_velocity(teacher_, x_mid, t_mid, ex.prev, ex.forcings);
    Tensor x_s = x_t;
    axpy_(x_s, s - t, k2);

    // Regression target y = stopgrad f_ema(x_s, s); at the boundary s = 0
    // the consistency function is the identity, so y = x_s exactly.
    Tensor y;
    if (s == 0.0f) {
      y = std::move(x_s);
    } else {
      Tensor vt = frozen_velocity(target_, x_s, s, ex.prev, ex.forcings);
      y = scale(x_s, std::cos(s));
      axpy_(y, -std::sin(s), vt);
    }

    // In F-space: f_pred - y = -c (F - F_target) with c = sin(t) sigma_d
    // and F_target = (cos(t) x_t - y) / c; weighted_mse over c-scaled
    // residuals reproduces the f-space loss and its gradient.
    const float c = std::sin(t) * sd;
    Tensor f_target = scale(x_t, std::cos(t));
    sub_(f_target, y);
    scale_(f_target, 1.0f / c);
    std::copy_n(f_target.data(), per_state, target.data() + i * per_state);
    t_vec[i] = t;
    grad_scale[static_cast<std::size_t>(i)] = c;

    Tensor state_channels = scale(x_t, 1.0f / sd);
    const Tensor* parts[] = {&state_channels, &ex.prev, &ex.forcings};
    Tensor cat = concat(std::span<const Tensor* const>(parts, 3), 2);
    if (cat.dim(2) != mc.in_channels) {
      throw std::invalid_argument(
          "distill_step: model in_channels does not match distiller inputs");
    }
    std::copy_n(cat.data(), cat.numel(), input.data() + i * cat.numel());
  }

  nn::FwdCtx ctx;
  Tensor f = student_.forward(input, t_vec, ctx);

  Tensor pred_scaled = f;
  Tensor target_scaled = target;
  for (std::int64_t i = 0; i < b; ++i) {
    const float sc = grad_scale[static_cast<std::size_t>(i)];
    float* pp = pred_scaled.data() + i * per_state;
    float* pt = target_scaled.data() + i * per_state;
    for (std::int64_t j = 0; j < per_state; ++j) {
      pp[j] *= sc;
      pt[j] *= sc;
    }
  }

  Tensor grad;
  const float loss = weighted_mse(pred_scaled, target_scaled, cfg_.weights,
                                  compute_grads ? &grad : nullptr);
  if (compute_grads) {
    for (std::int64_t i = 0; i < b; ++i) {
      const float sc = grad_scale[static_cast<std::size_t>(i)];
      float* pg = grad.data() + i * per_state;
      for (std::int64_t j = 0; j < per_state; ++j) pg[j] *= sc;
    }
    student_.backward(grad, ctx);
  }
  return loss;
}

float ConsistencyDistiller::distill_step(std::span<const TrainExample> batch) {
  nn::zero_grads(student_.params());
  const float loss = objective_forward_backward(batch, /*compute_grads=*/true);
  // Same guard discipline as Trainer::train_step: nothing non-finite may
  // reach AdamW/EMA state; throwing leaves every piece of state untouched.
  if (!std::isfinite(loss)) {
    throw NumericalError("distill_step: non-finite loss at images_seen=" +
                         std::to_string(images_seen_));
  }
  for (const nn::Param* p : student_.params()) {
    if (!tensor::all_finite(p->grad)) {
      throw NumericalError("distill_step: non-finite gradient in '" + p->name +
                           "' (flat index " +
                           std::to_string(tensor::first_nonfinite(p->grad)) +
                           ") at images_seen=" + std::to_string(images_seen_));
    }
  }
  if (cfg_.grad_clip > 0.0f) {
    nn::clip_grad_norm(student_.params(), cfg_.grad_clip);
  }
  const float lr = cfg_.schedule.at(images_seen_);
  opt_.step(lr);
  images_seen_ += static_cast<std::int64_t>(batch.size());
  ema_.update(student_.params(), static_cast<std::int64_t>(batch.size()));
  ema_.copy_to(target_.params());
  return loss;
}

float ConsistencyDistiller::eval_loss(std::span<const TrainExample> batch) {
  return objective_forward_backward(batch, /*compute_grads=*/false);
}

}  // namespace aeris::core
