#pragma once

#include "aeris/tensor/tensor.hpp"

namespace aeris::core {

/// Swin window partitioning over token maps.
///
/// AERIS keeps a non-hierarchical stack of Swin layers: every layer
/// partitions the (H, W) token grid into non-overlapping win x win
/// windows, and alternating layers first cyclically shift the grid by
/// (-win/2, -win/2) so information propagates across window boundaries
/// (paper §V-B). The longitude axis of the globe is periodic, so the
/// cyclic shift used by the classic Swin implementation is *physically
/// correct* in W; in H (latitude) it wraps too, which is the standard
/// approximation for pole-trimmed ERA5 grids (poles removed, §VI-B).
///
/// Both operations are pure permutations, so their backward passes are the
/// inverse permutations — `window_reverse` with the same shift.

/// Cyclically rolls a [H, W, C] tensor by (dy, dx); positive shifts move
/// content toward larger indices.
Tensor roll2d(const Tensor& x, std::int64_t dy, std::int64_t dx);

/// Partitions x [H, W, C] into [num_windows, win_h*win_w, C] after rolling
/// by (-shift, -shift). H % win_h == 0 and W % win_w == 0 are required.
/// Windows are ordered row-major over the window grid.
Tensor window_partition(const Tensor& x, std::int64_t win_h,
                        std::int64_t win_w, std::int64_t shift);

/// Inverse of window_partition (including undoing the shift).
Tensor window_reverse(const Tensor& windows, std::int64_t h, std::int64_t w,
                      std::int64_t win_h, std::int64_t win_w,
                      std::int64_t shift);

/// window_partition of every sample of x [B, H, W, C] at once:
/// [B * num_windows, win_h*win_w, C], sample-major. One gather with the
/// shift folded into the index map; no rolled or per-sample copies.
Tensor window_partition_batch(const Tensor& x, std::int64_t win_h,
                              std::int64_t win_w, std::int64_t shift);

/// Inverse of window_partition_batch: [B * num_windows, win_h*win_w, C]
/// back to [B, H, W, C].
Tensor window_reverse_batch(const Tensor& windows, std::int64_t batch,
                            std::int64_t h, std::int64_t w,
                            std::int64_t win_h, std::int64_t win_w,
                            std::int64_t shift);

/// Number of windows for a grid.
std::int64_t window_count(std::int64_t h, std::int64_t w, std::int64_t win_h,
                          std::int64_t win_w);

/// Converts a field [V, H, W] (variable-major, the dataset layout) to a
/// token map [H, W, V] (the model layout), and back.
Tensor field_to_tokens(const Tensor& field);
Tensor tokens_to_field(const Tensor& tokens);

}  // namespace aeris::core
