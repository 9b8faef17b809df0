#pragma once

#include "aeris/nn/linear.hpp"

namespace aeris::nn {

/// Per-sublayer adaptive-layer-norm head (paper §V-B: "the output of this
/// [layer-specific] linear layer is used as the values alpha, beta, gamma
/// for the adaptive layer norm", following DiT / FiLM conditioning).
///
/// Maps the broadcast conditioning vector [B, cond_dim] to three per-channel
/// modulation fields:
///   shift (beta), scale (alpha), gate (gamma), each [B, dim].
/// The head is zero-initialized (the DiT "adaLN-zero" trick) so every block
/// starts as an identity map — one of the stability ingredients for
/// billion-parameter training.
class AdaLNHead {
 public:
  struct Mod {
    Tensor shift;  // [B, dim]
    Tensor scale;  // [B, dim]
    Tensor gate;   // [B, dim]
  };

  AdaLNHead(std::string name, std::int64_t cond_dim, std::int64_t dim);

  Mod forward(const Tensor& cond, FwdCtx& ctx) const;
  /// Accumulates parameter grads; returns dL/dcond [B, cond_dim].
  Tensor backward(const Mod& dmod, FwdCtx& ctx);

  void collect_params(ParamList& out);
  void collect_params(ConstParamList& out) const;

  std::int64_t dim() const { return dim_; }

 private:
  std::int64_t dim_;
  Linear head_;
};

/// h = x * (1 + scale) + shift, broadcasting [B, dim] modulation over the
/// token axis of x [B_tokens_dim layout: (B, T, dim)]. `windows_per_sample`
/// maps leading window-batch index to conditioning sample: window b uses
/// cond row b / windows_per_sample (all windows of one sample share one t,
/// as required by the shared-seed rule in §VI-B). Writes h over x's
/// buffer: inference moves the activation in, training (which keeps x for
/// backward) passes a copy.
Tensor modulate(Tensor x, const AdaLNHead::Mod& mod,
                std::int64_t windows_per_sample);

/// Backward of `modulate`: fills dmod (reduced over tokens/windows) and
/// returns dx. `x` is the pre-modulation input.
Tensor modulate_backward(const Tensor& x, const AdaLNHead::Mod& mod,
                         const Tensor& dh, AdaLNHead::Mod& dmod,
                         std::int64_t windows_per_sample);

/// out = x + gate ⊙ y (same broadcast rule), written over y's buffer;
/// as with modulate, inference moves y in and training passes a copy.
Tensor apply_gate(const Tensor& x, Tensor y, const Tensor& gate,
                  std::int64_t windows_per_sample);

/// Backward of apply_gate: given dout, computes dy and dgate (reduced),
/// dx is just dout (caller adds).
void apply_gate_backward(const Tensor& y, const Tensor& gate,
                         const Tensor& dout, Tensor& dy, Tensor& dgate,
                         std::int64_t windows_per_sample);

}  // namespace aeris::nn
