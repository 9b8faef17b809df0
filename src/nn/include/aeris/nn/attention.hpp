#pragma once

#include "aeris/nn/linear.hpp"
#include "aeris/nn/rope.hpp"

namespace aeris::nn {

/// Scaled-dot-product attention core shared by the single-rank
/// WindowAttention and the Ulysses sequence-parallel path: q, k, v are
/// [B, T, H*dh]; returns [B, T, H*dh].
///
/// With `probs_out != nullptr` (training) the softmax probabilities
/// [B, H, T, T] are materialized for the backward pass. With
/// `probs_out == nullptr` (inference/sampling) no [B, H, T, T] tensor is
/// ever allocated: this runs the same strided kernel as WindowAttention's
/// inference forward, where each (batch, head) reads its q/k/v rows in
/// place. T <= 256 takes the fused full-row kernel (QK^T GEMM, softmax on
/// fast_expf four rows per pass, P@V GEMM); longer sequences take the
/// streaming online-softmax tile path.
Tensor attention_core_forward(const Tensor& q, const Tensor& k,
                              const Tensor& v, std::int64_t heads,
                              Tensor* probs_out = nullptr);

/// Backward of attention_core_forward. `probs` is the cached softmax
/// output; fills dq/dk/dv (allocated to match q/k/v).
void attention_core_backward(const Tensor& q, const Tensor& k, const Tensor& v,
                             const Tensor& probs, const Tensor& dout,
                             std::int64_t heads, Tensor& dq, Tensor& dk,
                             Tensor& dv);

/// Multi-head scaled-dot-product attention over independent windows.
///
/// Input is [B, T, C] where B indexes (batch x window) — every window is a
/// fully independent attention problem, which is precisely the structure
/// Window Parallelism exploits (paper §V-A: "each rank handles a disjoint
/// set of attention windows ... without requiring halo exchange").
///
/// Queries and keys are rotated by axial 2D RoPE with *window-local*
/// (row, col) coordinates. Because RoPE scores depend only on coordinate
/// differences (R(m)q · R(n)k = q · R(n-m)k), local coordinates give
/// attention identical to global ones, so all windows share one coordinate
/// table and WP ranks need no positional state exchange.
class WindowAttention {
 public:
  WindowAttention(std::string name, std::int64_t dim, std::int64_t num_heads,
                  std::int64_t win_h, std::int64_t win_w,
                  float rope_base = 10000.0f);

  void init(const Philox& rng, std::uint64_t index);

  /// x: [B, win_h*win_w, dim]. With an inference-mode ctx the attention
  /// kernel reads q/k/v straight from the qkv GEMM output, rotates q and k
  /// per (window, head) from the RoPE table, and retains nothing; with a
  /// training-mode ctx post-RoPE q/k, raw v and the softmax probabilities
  /// are deposited into the ctx for backward.
  Tensor forward(const Tensor& x, FwdCtx& ctx) const;
  Tensor backward(const Tensor& dy, FwdCtx& ctx);

  void collect_params(ParamList& out);
  void collect_params(ConstParamList& out) const;

  std::int64_t dim() const { return dim_; }
  std::int64_t num_heads() const { return heads_; }
  std::int64_t head_dim() const { return dim_ / heads_; }
  std::int64_t tokens() const { return win_h_ * win_w_; }

 private:
  std::int64_t dim_;
  std::int64_t heads_;
  std::int64_t win_h_, win_w_;
  Linear qkv_;
  Linear proj_;
  AxialRope rope_;
  Tensor coords_;                  // [T, 2] window-local
  std::vector<float> rope_table_;  // rope_.table(coords_), built once
  LayerId id_;
};

}  // namespace aeris::nn
