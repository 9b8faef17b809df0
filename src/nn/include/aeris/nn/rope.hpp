#pragma once

#include <vector>

#include "aeris/tensor/tensor.hpp"

namespace aeris::nn {

/// Axial-frequency 2D rotary positional embedding (paper §V-B, replacing
/// SwinV2's relative positional biases; ref. Heo et al., ECCV 2024).
///
/// Each attention head of dimension `head_dim` is split into two halves:
/// the first half is rotated by frequencies of the *row* coordinate, the
/// second by the *column* coordinate. Within a half, consecutive pairs
/// (2i, 2i+1) rotate by angle pos * base^(-2i / (head_dim/2)).
///
/// Coordinates are the *global* pixel positions of each token, so shifted
/// windows automatically see consistent relative geometry — this is what
/// lets window parallelism assign any window to any rank without
/// re-deriving positional state.
class AxialRope {
 public:
  explicit AxialRope(std::int64_t head_dim, float base = 10000.0f);

  std::int64_t head_dim() const { return head_dim_; }

  /// Rotates q/k in place. `x` is [B, T, H*head_dim]; `coords` is [T, 2]
  /// holding (row, col) per token. `inverse` applies the transpose
  /// rotation (exactly the gradient of the forward rotation).
  void apply(Tensor& x, std::int64_t num_heads, const Tensor& coords,
             bool inverse = false) const;

  /// Per-token cos/sin table for `coords` ([T, 2]): head_dim floats per
  /// token, (cos row, sin row, cos col, sin col) per frequency. apply()
  /// builds it on every call; a layer whose coordinates never change
  /// builds it once and rotates with rotate().
  std::vector<float> table(const Tensor& coords, bool inverse = false) const;

  /// Rotates one head vector: dst[0, head_dim) = R src[0, head_dim), with
  /// `cs` the token's row of table(). `src` may equal `dst`. apply() runs
  /// this same compiled function, so both give the same bits in every
  /// build (an inlined copy could be contracted or vectorized differently
  /// at each call site).
  void rotate(const float* src, float* dst, const float* cs) const;

 private:
  std::int64_t head_dim_;
  std::vector<float> freqs_;  // head_dim/4 axial frequencies
};

/// Builds [T, 2] (row, col) coordinates for a window whose top-left token
/// sits at (row0, col0) in the global grid, tokens in row-major order.
/// Coordinates wrap modulo the global grid extent (the longitude axis is
/// periodic; shifted windows that wrap get their true positions).
Tensor window_coords(std::int64_t row0, std::int64_t col0, std::int64_t win_h,
                     std::int64_t win_w, std::int64_t grid_h,
                     std::int64_t grid_w);

}  // namespace aeris::nn
