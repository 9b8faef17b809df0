#pragma once

#include "aeris/nn/fwd_ctx.hpp"
#include "aeris/nn/param.hpp"
#include "aeris/tensor/gemm.hpp"
#include "aeris/tensor/tensor.hpp"

namespace aeris::nn {

/// Fully-connected layer y = x W^T + b over the last dimension.
///
/// Input is treated as a flat matrix [rows, in_features] where rows is the
/// product of all leading dims; the output keeps the leading dims with the
/// last replaced by out_features. Forward is const with respect to the
/// weights and retains nothing in the layer: with a training-mode FwdCtx
/// it deposits the input into the ctx for the explicit backward pass;
/// `backward` returns dL/dx and *accumulates* into the weight/bias
/// gradients (accumulation is what gradient-accumulation steps — GAS in
/// the paper's Table II — rely on).
class Linear {
 public:
  Linear(std::string name, std::int64_t in_features, std::int64_t out_features,
         bool bias = true);

  /// Scaled N(0, 1/sqrt(in)) init, deterministic in (rng seed, index).
  void init(const Philox& rng, std::uint64_t index);
  /// Zero-init (used for adaLN modulation heads and output layers that
  /// should start as identity/no-op, the DiT "adaLN-zero" trick).
  void init_zero();

  Tensor forward(const Tensor& x, FwdCtx& ctx) const;
  Tensor backward(const Tensor& dy, FwdCtx& ctx);

  /// Stateless apply (no cache, no grad) for inference-only paths.
  Tensor apply(const Tensor& x) const;

  void collect_params(ParamList& out);
  void collect_params(ConstParamList& out) const;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  Param& weight() { return w_; }
  Param& bias() { return b_; }
  bool has_bias() const { return has_bias_; }

 private:
  std::int64_t in_ = 0;
  std::int64_t out_ = 0;
  bool has_bias_ = true;
  Param w_;  // [out, in]
  Param b_;  // [out]
  LayerId id_;
};

}  // namespace aeris::nn
