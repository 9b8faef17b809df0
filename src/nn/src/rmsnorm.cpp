#include "aeris/nn/rmsnorm.hpp"

#include <cmath>
#include <stdexcept>

namespace aeris::nn {
namespace {

// Ctx slot: the input plus the per-row inverse RMS factors.
struct RMSNormCache {
  Tensor x;
  Tensor inv_rms;  // [rows]
};

// Normalizes `rows` rows of `dim` floats (g == nullptr: no gain), storing
// each row's inverse RMS in inv_out when it is not null. A row's double
// sum of squares is a serial chain of dim adds, so four rows run side by
// side: four independent chains overlap, and each still adds its own row
// in column order, which keeps the one-row bits.
void rms_rows(const float* x, std::int64_t rows, std::int64_t dim, float eps,
              const float* g, float* y, float* inv_out) {
  const auto finish = [&](std::int64_t r, double ss) {
    const float inv = 1.0f / std::sqrt(static_cast<float>(ss / dim) + eps);
    if (inv_out != nullptr) inv_out[r] = inv;
    const float* px = x + r * dim;
    float* py = y + r * dim;
    for (std::int64_t c = 0; c < dim; ++c) {
      py[c] = px[c] * inv * (g != nullptr ? g[c] : 1.0f);
    }
  };
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float* p0 = x + r * dim;
    const float* p1 = p0 + dim;
    const float* p2 = p1 + dim;
    const float* p3 = p2 + dim;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::int64_t c = 0; c < dim; ++c) {
      s0 += static_cast<double>(p0[c]) * p0[c];
      s1 += static_cast<double>(p1[c]) * p1[c];
      s2 += static_cast<double>(p2[c]) * p2[c];
      s3 += static_cast<double>(p3[c]) * p3[c];
    }
    finish(r, s0);
    finish(r + 1, s1);
    finish(r + 2, s2);
    finish(r + 3, s3);
  }
  for (; r < rows; ++r) {
    const float* px = x + r * dim;
    double ss = 0.0;
    for (std::int64_t c = 0; c < dim; ++c) ss += static_cast<double>(px[c]) * px[c];
    finish(r, ss);
  }
}

}  // namespace

RMSNorm::RMSNorm(std::string name, std::int64_t dim, bool elementwise_affine,
                 float eps)
    : dim_(dim),
      affine_(elementwise_affine),
      eps_(eps),
      g_(affine_ ? Param(name + ".gain", {dim}) : Param()) {
  if (affine_) g_.value.fill(1.0f);
}

Tensor RMSNorm::apply(const Tensor& x) const {
  if (x.dim(-1) != dim_) throw std::invalid_argument("RMSNorm: bad last dim");
  Tensor y(x.shape());
  rms_rows(x.data(), x.numel() / dim_, dim_, eps_,
           affine_ ? g_.value.data() : nullptr, y.data(), nullptr);
  return y;
}

Tensor RMSNorm::forward(const Tensor& x, FwdCtx& ctx) const {
  if (ctx.inference()) return apply(x);
  if (x.dim(-1) != dim_) throw std::invalid_argument("RMSNorm: bad last dim");
  const std::int64_t rows = x.numel() / dim_;
  RMSNormCache& cache = ctx.slot<RMSNormCache>(id_);
  cache.x = x;
  cache.inv_rms = Tensor({rows});
  Tensor y(x.shape());
  rms_rows(x.data(), rows, dim_, eps_, affine_ ? g_.value.data() : nullptr,
           y.data(), cache.inv_rms.data());
  return y;
}

Tensor RMSNorm::backward(const Tensor& dy, FwdCtx& ctx) {
  RMSNormCache* cache = ctx.find<RMSNormCache>(id_);
  if (cache == nullptr || cache->x.empty()) {
    throw std::logic_error("RMSNorm: backward before forward");
  }
  const std::int64_t rows = cache->x.numel() / dim_;
  Tensor dx(cache->x.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* px = cache->x.data() + r * dim_;
    const float* pdy = dy.data() + r * dim_;
    float* pdx = dx.data() + r * dim_;
    const float inv = cache->inv_rms[r];
    // With u = x * inv_rms and y = u * g:
    //   dL/du_c = dy_c * g_c
    //   dL/dx  = inv * (du - u * mean(du ⊙ u))
    double du_dot_u = 0.0;
    for (std::int64_t c = 0; c < dim_; ++c) {
      const float du = pdy[c] * (affine_ ? g_.value[c] : 1.0f);
      du_dot_u += static_cast<double>(du) * (px[c] * inv);
    }
    const float mean_du_u = static_cast<float>(du_dot_u / dim_);
    for (std::int64_t c = 0; c < dim_; ++c) {
      const float du = pdy[c] * (affine_ ? g_.value[c] : 1.0f);
      const float u = px[c] * inv;
      pdx[c] = inv * (du - u * mean_du_u);
      if (affine_) g_.grad[c] += pdy[c] * u;
    }
  }
  return dx;
}

void RMSNorm::collect_params(ParamList& out) {
  if (affine_) out.push_back(&g_);
}

void RMSNorm::collect_params(ConstParamList& out) const {
  if (affine_) out.push_back(&g_);
}

}  // namespace aeris::nn
