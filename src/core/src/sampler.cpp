#include "aeris/core/sampler.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

Shape stacked_shape(const Shape& shape, std::int64_t e) {
  Shape out;
  out.reserve(shape.size() + 1);
  out.push_back(e);
  out.insert(out.end(), shape.begin(), shape.end());
  return out;
}

/// Fills member slab e of the stacked state with exactly the draws a
/// serial fill_normal from Philox(keys[e].seed) keyed by
/// (stream, keys[e].key*1024 + sample_offset) would produce (same begin=0
/// flat index space per slab). Philox is a stateless seed wrapper, so
/// constructing one per member is free.
void fill_member_noise(Tensor& x, std::int64_t per, std::uint64_t stream,
                       std::span<const MemberKey> keys,
                       std::uint64_t sample_offset) {
  for (std::size_t e = 0; e < keys.size(); ++e) {
    Philox(keys[e].seed)
        .fill_normal_range(
            std::span<float>(x.data() + static_cast<std::int64_t>(e) * per,
                             static_cast<std::size_t>(per)),
            stream, keys[e].key * 1024 + sample_offset, 0);
  }
}

/// Noise-key offset of the consistency sampler inside a member's 1024-wide
/// key block: disjoint from the TrigFlow sampler (offset 0, churn 1..) and
/// the EDM sampler (offset 512), so teacher and student draws never alias
/// even under one seed. Offset 768 + i keys evaluation i's noise.
constexpr std::uint64_t kConsistencyNoiseOffset = 768;

}  // namespace

SamplerKind sampler_kind_from_env() {
  const char* v = std::getenv("AERIS_SAMPLER");
  if (v == nullptr || *v == '\0') return SamplerKind::kDpmSolver;
  if (std::strcmp(v, "consistency") == 0) return SamplerKind::kConsistency;
  throw std::invalid_argument(std::string("AERIS_SAMPLER = \"") + v +
                              "\": must be unset, empty or \"consistency\"");
}

std::vector<float> trigflow_schedule(const TrigFlow& tf,
                                     const TrigSamplerConfig& cfg) {
  if (cfg.steps < 1) throw std::invalid_argument("sampler: steps < 1");
  std::vector<float> ts(static_cast<std::size_t>(cfg.steps) + 1);
  const float lmax = std::log(cfg.sigma_max);
  const float lmin = std::log(cfg.sigma_min);
  const float sd = tf.config().sigma_d;
  for (int i = 0; i < cfg.steps; ++i) {
    const float frac = cfg.steps == 1
                           ? 0.0f
                           : static_cast<float>(i) /
                                 static_cast<float>(cfg.steps - 1);
    const float sigma = std::exp(lmax + frac * (lmin - lmax));
    ts[static_cast<std::size_t>(i)] = std::atan(sigma / sd);
  }
  ts[static_cast<std::size_t>(cfg.steps)] = 0.0f;
  return ts;
}

Tensor sample_trigflow(const DenoiserFn& velocity, const Shape& shape,
                       const TrigFlow& tf, const TrigSamplerConfig& cfg,
                       const Philox& rng, std::uint64_t member) {
  const float sd = tf.config().sigma_d;
  const std::vector<float> ts = trigflow_schedule(tf, cfg);

  // Start from pure noise at t_0: x = sigma_d * z.
  Tensor x(shape);
  rng.fill_normal(x, rng_stream::kSamplerNoise, member * 1024);
  scale_(x, sd);

  constexpr float kHalfPi = 1.5707963267948966f;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    float t = ts[i];
    const float t_next = ts[i + 1];

    // Trigonometric Langevin-like churn: rotate partially back toward the
    // noise sphere with *fresh* noise, increasing t before the ODE step.
    if (cfg.churn > 0.0f && i + 1 < ts.size() - 1) {
      const float delta =
          std::min(cfg.churn * (t - t_next), kHalfPi - t - 1e-4f);
      if (delta > 0.0f) {
        Tensor z(shape);
        rng.fill_normal(z, rng_stream::kChurn,
                        member * 1024 + static_cast<std::uint64_t>(i) + 1);
        Tensor xr = scale(x, std::cos(delta));
        axpy_(xr, sd * std::sin(delta), z);
        x = xr;
        t += delta;
      }
    }

    // Midpoint (two-stage second order) step of dx/dt = v(x, t).
    const float t_mid = 0.5f * (t + t_next);
    Tensor k1 = velocity(x, t);
    Tensor x_mid = x;
    axpy_(x_mid, t_mid - t, k1);
    Tensor k2 = velocity(x_mid, t_mid);
    axpy_(x, t_next - t, k2);
  }
  return x;
}

Tensor sample_trigflow_batched(const DenoiserFn& velocity, const Shape& shape,
                               const TrigFlow& tf, const TrigSamplerConfig& cfg,
                               std::span<const MemberKey> members) {
  const float sd = tf.config().sigma_d;
  const std::vector<float> ts = trigflow_schedule(tf, cfg);
  const std::int64_t e = static_cast<std::int64_t>(members.size());
  if (e == 0) throw std::invalid_argument("sampler: empty member pack");
  const Shape xshape = stacked_shape(shape, e);

  Tensor x(xshape);
  std::int64_t per = 1;
  for (const std::int64_t d : shape) per *= d;
  fill_member_noise(x, per, rng_stream::kSamplerNoise, members, 0);
  scale_(x, sd);

  constexpr float kHalfPi = 1.5707963267948966f;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    float t = ts[i];
    const float t_next = ts[i + 1];

    // The churn angle depends only on the schedule, so all members rotate
    // by the same delta — exactly what each serial call computes.
    if (cfg.churn > 0.0f && i + 1 < ts.size() - 1) {
      const float delta =
          std::min(cfg.churn * (t - t_next), kHalfPi - t - 1e-4f);
      if (delta > 0.0f) {
        Tensor z(xshape);
        fill_member_noise(z, per, rng_stream::kChurn, members,
                          static_cast<std::uint64_t>(i) + 1);
        Tensor xr = scale(x, std::cos(delta));
        axpy_(xr, sd * std::sin(delta), z);
        x = xr;
        t += delta;
      }
    }

    const float t_mid = 0.5f * (t + t_next);
    Tensor k1 = velocity(x, t);
    Tensor x_mid = x;
    axpy_(x_mid, t_mid - t, k1);
    Tensor k2 = velocity(x_mid, t_mid);
    axpy_(x, t_next - t, k2);
  }
  return x;
}

Tensor sample_edm(const DenoiserFn& network, const Shape& shape,
                  const Edm& edm, const EdmSamplerConfig& cfg,
                  const Philox& rng, std::uint64_t member) {
  const std::vector<float> sigmas = edm.schedule(cfg.steps);

  Tensor x(shape);
  rng.fill_normal(x, rng_stream::kSamplerNoise, member * 1024 + 512);
  scale_(x, sigmas[0]);

  auto denoise = [&](const Tensor& xx, float sigma) {
    Tensor xin = scale(xx, edm.c_in(sigma));
    Tensor f = network(xin, edm.c_noise(sigma));
    Tensor d = scale(xx, edm.c_skip(sigma));
    axpy_(d, edm.c_out(sigma), f);
    return d;
  };

  for (std::size_t i = 0; i + 1 < sigmas.size(); ++i) {
    const float s = sigmas[i];
    const float s_next = sigmas[i + 1];
    Tensor d0 = denoise(x, s);
    // d = (x - D) / sigma
    Tensor slope = x;
    sub_(slope, d0);
    scale_(slope, 1.0f / s);
    Tensor x_euler = x;
    axpy_(x_euler, s_next - s, slope);
    if (s_next > 0.0f) {
      Tensor d1 = denoise(x_euler, s_next);
      Tensor slope2 = x_euler;
      sub_(slope2, d1);
      scale_(slope2, 1.0f / s_next);
      axpy_(slope, 1.0f, slope2);
      scale_(slope, 0.5f);
      x_euler = x;
      axpy_(x_euler, s_next - s, slope);
    }
    x = x_euler;
  }
  return x;
}

Tensor sample_edm_batched(const DenoiserFn& network, const Shape& shape,
                          const Edm& edm, const EdmSamplerConfig& cfg,
                          std::span<const MemberKey> members) {
  const std::vector<float> sigmas = edm.schedule(cfg.steps);
  const std::int64_t e = static_cast<std::int64_t>(members.size());
  if (e == 0) throw std::invalid_argument("sampler: empty member pack");

  Tensor x(stacked_shape(shape, e));
  std::int64_t per = 1;
  for (const std::int64_t d : shape) per *= d;
  fill_member_noise(x, per, rng_stream::kSamplerNoise, members, 512);
  scale_(x, sigmas[0]);

  auto denoise = [&](const Tensor& xx, float sigma) {
    Tensor xin = scale(xx, edm.c_in(sigma));
    Tensor f = network(xin, edm.c_noise(sigma));
    Tensor d = scale(xx, edm.c_skip(sigma));
    axpy_(d, edm.c_out(sigma), f);
    return d;
  };

  for (std::size_t i = 0; i + 1 < sigmas.size(); ++i) {
    const float s = sigmas[i];
    const float s_next = sigmas[i + 1];
    Tensor d0 = denoise(x, s);
    Tensor slope = x;
    sub_(slope, d0);
    scale_(slope, 1.0f / s);
    Tensor x_euler = x;
    axpy_(x_euler, s_next - s, slope);
    if (s_next > 0.0f) {
      Tensor d1 = denoise(x_euler, s_next);
      Tensor slope2 = x_euler;
      sub_(slope2, d1);
      scale_(slope2, 1.0f / s_next);
      axpy_(slope, 1.0f, slope2);
      scale_(slope, 0.5f);
      x_euler = x;
      axpy_(x_euler, s_next - s, slope);
    }
    x = x_euler;
  }
  return x;
}

std::vector<float> consistency_schedule(const TrigFlow& tf,
                                        const ConsistencySamplerConfig& cfg) {
  if (cfg.steps < 1) throw std::invalid_argument("sampler: steps < 1");
  std::vector<float> ts(static_cast<std::size_t>(cfg.steps));
  const float lmax = std::log(cfg.sigma_max);
  const float lmin = std::log(cfg.sigma_min);
  const float sd = tf.config().sigma_d;
  for (int i = 0; i < cfg.steps; ++i) {
    // frac = i / steps (not steps - 1): the last evaluation sits one
    // log-spacing above sigma_min, so multistep refinement re-noises at a
    // useful level instead of collapsing onto the schedule floor.
    const float frac =
        static_cast<float>(i) / static_cast<float>(cfg.steps);
    const float sigma = std::exp(lmax + frac * (lmin - lmax));
    ts[static_cast<std::size_t>(i)] = std::atan(sigma / sd);
  }
  return ts;
}

Tensor sample_consistency(const DenoiserFn& velocity, const Shape& shape,
                          const TrigFlow& tf,
                          const ConsistencySamplerConfig& cfg,
                          const Philox& rng, std::uint64_t member) {
  const float sd = tf.config().sigma_d;
  const std::vector<float> ts = consistency_schedule(tf, cfg);

  // Start from pure noise at t_0: x = sigma_d * z.
  Tensor x(shape);
  rng.fill_normal(x, rng_stream::kSamplerNoise,
                  member * 1024 + kConsistencyNoiseOffset);
  scale_(x, sd);

  Tensor x0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const float t = ts[i];
    if (i > 0) {
      // Re-noise the estimate to t with *fresh* noise:
      // x = cos(t) x0 + sin(t) sigma_d z_i.
      Tensor z(shape);
      rng.fill_normal(z, rng_stream::kSamplerNoise,
                      member * 1024 + kConsistencyNoiseOffset +
                          static_cast<std::uint64_t>(i));
      x = scale(x0, std::cos(t));
      axpy_(x, sd * std::sin(t), z);
    }
    // Consistency estimate f(x, t) = cos(t) x - sin(t) v(x, t).
    Tensor v = velocity(x, t);
    x0 = scale(x, std::cos(t));
    axpy_(x0, -std::sin(t), v);
  }
  return x0;
}

Tensor sample_consistency_batched(const DenoiserFn& velocity,
                                  const Shape& shape, const TrigFlow& tf,
                                  const ConsistencySamplerConfig& cfg,
                                  std::span<const MemberKey> members) {
  const float sd = tf.config().sigma_d;
  const std::vector<float> ts = consistency_schedule(tf, cfg);
  const std::int64_t e = static_cast<std::int64_t>(members.size());
  if (e == 0) throw std::invalid_argument("sampler: empty member pack");
  const Shape xshape = stacked_shape(shape, e);

  Tensor x(xshape);
  std::int64_t per = 1;
  for (const std::int64_t d : shape) per *= d;
  fill_member_noise(x, per, rng_stream::kSamplerNoise, members,
                    kConsistencyNoiseOffset);
  scale_(x, sd);

  Tensor x0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    // The schedule depends only on the config, never on the state, so all
    // members share t — exactly what each serial call computes.
    const float t = ts[i];
    if (i > 0) {
      Tensor z(xshape);
      fill_member_noise(z, per, rng_stream::kSamplerNoise, members,
                        kConsistencyNoiseOffset +
                            static_cast<std::uint64_t>(i));
      x = scale(x0, std::cos(t));
      axpy_(x, sd * std::sin(t), z);
    }
    Tensor v = velocity(x, t);
    x0 = scale(x, std::cos(t));
    axpy_(x0, -std::sin(t), v);
  }
  return x0;
}

}  // namespace aeris::core
