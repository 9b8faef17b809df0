#include "aeris/nn/linear.hpp"

#include <cmath>
#include <stdexcept>

namespace aeris::nn {
namespace {

Shape with_last(const Shape& s, std::int64_t last) {
  Shape out = s;
  out.back() = last;
  return out;
}

// Ctx slot: the forward input, the only activation backward needs.
struct LinearCache {
  Tensor x;
};

}  // namespace

Linear::Linear(std::string name, std::int64_t in_features,
               std::int64_t out_features, bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      w_(name + ".weight", {out_features, in_features}),
      b_(bias ? Param(name + ".bias", {out_features}) : Param()) {}

void Linear::init(const Philox& rng, std::uint64_t index) {
  init_normal(w_, rng, index, 1.0f / std::sqrt(static_cast<float>(in_)));
  if (has_bias_) b_.value.fill(0.0f);
}

void Linear::init_zero() {
  w_.value.fill(0.0f);
  if (has_bias_) b_.value.fill(0.0f);
}

Tensor Linear::apply(const Tensor& x) const {
  if (x.dim(-1) != in_) {
    throw std::invalid_argument(w_.name + ": expected last dim " +
                                std::to_string(in_) + ", got " +
                                shape_to_string(x.shape()));
  }
  const std::int64_t rows = x.numel() / in_;
  Tensor y(with_last(x.shape(), out_));
  // y = x @ W^T
  gemm(false, true, rows, out_, in_, 1.0f, x.data(), in_, w_.value.data(), in_,
       0.0f, y.data(), out_);
  if (has_bias_) {
    float* py = y.data();
    const float* pb = b_.value.data();
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < out_; ++c) py[r * out_ + c] += pb[c];
    }
  }
  return y;
}

Tensor Linear::forward(const Tensor& x, FwdCtx& ctx) const {
  // In inference mode the input is only needed for this call; skipping the
  // deposit keeps sampling rollouts free of backward-only retention.
  if (ctx.training()) ctx.slot<LinearCache>(id_).x = x;
  return apply(x);
}

Tensor Linear::backward(const Tensor& dy, FwdCtx& ctx) {
  LinearCache* cache = ctx.find<LinearCache>(id_);
  if (cache == nullptr || cache->x.empty()) {
    throw std::logic_error(w_.name + ": backward before forward");
  }
  const Tensor& x = cache->x;
  const std::int64_t rows = x.numel() / in_;
  if (dy.numel() != rows * out_) {
    throw std::invalid_argument(w_.name + ": backward shape mismatch");
  }
  // dW += dY^T @ X   (FP32 accumulation into master grads)
  gemm(true, false, out_, in_, rows, 1.0f, dy.data(), out_, x.data(), in_,
       1.0f, w_.grad.data(), in_);
  if (has_bias_) {
    const float* pdy = dy.data();
    float* pdb = b_.grad.data();
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < out_; ++c) pdb[c] += pdy[r * out_ + c];
    }
  }
  // dX = dY @ W
  Tensor dx(x.shape());
  gemm(false, false, rows, in_, out_, 1.0f, dy.data(), out_, w_.value.data(),
       in_, 0.0f, dx.data(), in_);
  return dx;
}

void Linear::collect_params(ParamList& out) {
  out.push_back(&w_);
  if (has_bias_) out.push_back(&b_);
}

void Linear::collect_params(ConstParamList& out) const {
  out.push_back(&w_);
  if (has_bias_) out.push_back(&b_);
}

}  // namespace aeris::nn
