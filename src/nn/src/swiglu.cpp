#include "aeris/nn/swiglu.hpp"

#include <cmath>

#include "aeris/tensor/fastmath.hpp"
#include "aeris/tensor/ops.hpp"

#include <stdexcept>

namespace aeris::nn {
namespace {

// Ctx slot: the two pre-activation branches of the gated FFN.
struct SwiGLUCache {
  Tensor gate_pre;  // W_gate x
  Tensor up;        // W_up x
};

}  // namespace

float silu(float x) { return x / (1.0f + std::exp(-x)); }

float silu_grad(float x) {
  const float s = 1.0f / (1.0f + std::exp(-x));
  return s * (1.0f + x * (1.0f - s));
}

SwiGLU::SwiGLU(std::string name, std::int64_t dim, std::int64_t hidden)
    : gate_(name + ".gate", dim, hidden, /*bias=*/false),
      up_(name + ".up", dim, hidden, /*bias=*/false),
      down_(name + ".down", hidden, dim, /*bias=*/false) {}

void SwiGLU::init(const Philox& rng, std::uint64_t index) {
  gate_.init(rng, index * 4 + 0);
  up_.init(rng, index * 4 + 1);
  down_.init(rng, index * 4 + 2);
}

Tensor SwiGLU::forward(const Tensor& x, FwdCtx& ctx) const {
  Tensor gate_pre = gate_.forward(x, ctx);
  Tensor up = up_.forward(x, ctx);
  const std::int64_t n = gate_pre.numel();
  if (ctx.inference()) {
    // Inference-only activation: polynomial exp, vectorizable, written over
    // gate_pre. Training keeps the std::exp silu below — its bit-exact
    // goldens must not move — and keeps gate_pre for backward.
    float* pg = gate_pre.data();
    const float* pu = up.data();
#pragma omp simd
    for (std::int64_t i = 0; i < n; ++i) pg[i] = fast_siluf(pg[i]) * pu[i];
    return down_.forward(gate_pre, ctx);
  }
  Tensor h = gate_pre;
  for (std::int64_t i = 0; i < n; ++i) {
    h[i] = silu(h[i]) * up[i];
  }
  SwiGLUCache& cache = ctx.slot<SwiGLUCache>(id_);
  cache.gate_pre = std::move(gate_pre);
  cache.up = std::move(up);
  return down_.forward(h, ctx);
}

Tensor SwiGLU::backward(const Tensor& dy, FwdCtx& ctx) {
  SwiGLUCache* cache = ctx.find<SwiGLUCache>(id_);
  if (cache == nullptr || cache->gate_pre.empty()) {
    throw std::logic_error("SwiGLU: backward before forward");
  }
  Tensor dh = down_.backward(dy, ctx);
  Tensor dgate(cache->gate_pre.shape());
  Tensor dup(cache->up.shape());
  const std::int64_t n = dh.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    dgate[i] = dh[i] * cache->up[i] * silu_grad(cache->gate_pre[i]);
    dup[i] = dh[i] * silu(cache->gate_pre[i]);
  }
  Tensor dx = gate_.backward(dgate, ctx);
  add_(dx, up_.backward(dup, ctx));
  return dx;
}

void SwiGLU::collect_params(ParamList& out) {
  gate_.collect_params(out);
  up_.collect_params(out);
  down_.collect_params(out);
}

void SwiGLU::collect_params(ConstParamList& out) const {
  gate_.collect_params(out);
  up_.collect_params(out);
  down_.collect_params(out);
}

}  // namespace aeris::nn
