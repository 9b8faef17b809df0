#include "aeris/nn/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "aeris/nn/swiglu.hpp"

namespace aeris::nn {
namespace {

// Ctx slot: pre-activation of the shared conditioning layer.
struct TimeEmbedCache {
  Tensor pre;
};

}  // namespace

Tensor sinusoidal_posenc_2d(std::int64_t h, std::int64_t w,
                            std::int64_t num_freqs, float amplitude) {
  Tensor pe({h, w});
  constexpr float kTwoPi = 6.283185307179586f;
  for (std::int64_t r = 0; r < h; ++r) {
    for (std::int64_t c = 0; c < w; ++c) {
      float acc = 0.0f;
      for (std::int64_t f = 0; f < num_freqs; ++f) {
        const float fr = static_cast<float>(1 << f);
        acc += std::sin(kTwoPi * fr * static_cast<float>(r) / static_cast<float>(h));
        acc += std::cos(kTwoPi * fr * static_cast<float>(c) / static_cast<float>(w));
      }
      pe.at2(r, c) = amplitude * acc / static_cast<float>(2 * num_freqs);
    }
  }
  return pe;
}

Tensor sinusoidal_features(float t, std::int64_t dim, float max_period) {
  if (dim % 2 != 0) throw std::invalid_argument("sinusoidal_features: odd dim");
  Tensor out({dim});
  const std::int64_t half = dim / 2;
  for (std::int64_t i = 0; i < half; ++i) {
    const float freq = std::exp(-std::log(max_period) * static_cast<float>(i) /
                                static_cast<float>(half));
    out[2 * i] = std::sin(t * freq * max_period);
    out[2 * i + 1] = std::cos(t * freq * max_period);
  }
  return out;
}

TimeEmbedding::TimeEmbedding(std::string name, std::int64_t feature_dim,
                             std::int64_t cond_dim)
    : feature_dim_(feature_dim),
      shared_(name + ".shared", feature_dim, cond_dim, /*bias=*/true) {}

void TimeEmbedding::init(const Philox& rng, std::uint64_t index) {
  shared_.init(rng, index);
}

Tensor TimeEmbedding::forward(const Tensor& t, FwdCtx& ctx) const {
  if (t.ndim() != 1) throw std::invalid_argument("TimeEmbedding: t must be [B]");
  const std::int64_t b = t.dim(0);
  Tensor feats({b, feature_dim_});
  for (std::int64_t i = 0; i < b; ++i) {
    const Tensor f = sinusoidal_features(t[i], feature_dim_);
    std::copy_n(f.data(), feature_dim_, feats.data() + i * feature_dim_);
  }
  Tensor pre = shared_.forward(feats, ctx);
  Tensor out = pre;
  for (float& x : out.flat()) x = silu(x);
  if (ctx.training()) ctx.slot<TimeEmbedCache>(id_).pre = std::move(pre);
  return out;
}

void TimeEmbedding::backward(const Tensor& dcond, FwdCtx& ctx) {
  TimeEmbedCache* cache = ctx.find<TimeEmbedCache>(id_);
  if (cache == nullptr || cache->pre.empty()) {
    throw std::logic_error("TimeEmbedding: backward before forward");
  }
  Tensor dpre = dcond;
  for (std::int64_t i = 0; i < dpre.numel(); ++i) {
    dpre[i] *= silu_grad(cache->pre[i]);
  }
  shared_.backward(dpre, ctx);  // dfeats unused: t carries no gradient
}

void TimeEmbedding::collect_params(ParamList& out) {
  shared_.collect_params(out);
}

void TimeEmbedding::collect_params(ConstParamList& out) const {
  shared_.collect_params(out);
}

}  // namespace aeris::nn
