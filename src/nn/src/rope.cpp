#include "aeris/nn/rope.hpp"

#include <cmath>
#include <stdexcept>

namespace aeris::nn {

AxialRope::AxialRope(std::int64_t head_dim, float base) : head_dim_(head_dim) {
  if (head_dim % 4 != 0) {
    throw std::invalid_argument("AxialRope: head_dim must be divisible by 4");
  }
  const std::int64_t nf = head_dim / 4;  // freqs per axis
  freqs_.resize(static_cast<std::size_t>(nf));
  for (std::int64_t i = 0; i < nf; ++i) {
    freqs_[static_cast<std::size_t>(i)] =
        std::pow(base, -2.0f * static_cast<float>(i) / static_cast<float>(head_dim / 2));
  }
}

void AxialRope::apply(Tensor& x, std::int64_t num_heads, const Tensor& coords,
                      bool inverse) const {
  if (x.ndim() != 3) throw std::invalid_argument("AxialRope: x must be [B,T,C]");
  const std::int64_t b = x.dim(0), t = x.dim(1), c = x.dim(2);
  if (c != num_heads * head_dim_) {
    throw std::invalid_argument("AxialRope: channel dim != heads*head_dim");
  }
  if (coords.ndim() != 2 || coords.dim(0) != t || coords.dim(1) != 2) {
    throw std::invalid_argument("AxialRope: coords must be [T,2]");
  }
  const std::vector<float> cs = table(coords, inverse);
  for (std::int64_t bb = 0; bb < b; ++bb) {
    for (std::int64_t tok = 0; tok < t; ++tok) {
      float* base_ptr = x.data() + (bb * t + tok) * c;
      const float* p = cs.data() + tok * head_dim_;
      for (std::int64_t h = 0; h < num_heads; ++h) {
        rotate(base_ptr + h * head_dim_, base_ptr + h * head_dim_, p);
      }
    }
  }
}

// Never inlined: apply() and the attention kernel must run one compiled
// body, or the bits could differ between them.
[[gnu::noinline]] void AxialRope::rotate(const float* src, float* dst,
                                         const float* cs) const {
  const std::int64_t nf = head_dim_ / 4;
  // First half: row rotations; second half: column rotations.
  for (std::int64_t half = 0; half < 2; ++half) {
    const float* a = src + half * 2 * nf;
    float* r = dst + half * 2 * nf;
    for (std::int64_t i = 0; i < nf; ++i) {
      const float c = cs[i * 4 + half * 2], s = cs[i * 4 + half * 2 + 1];
      const float a0 = a[2 * i], a1 = a[2 * i + 1];
      r[2 * i] = a0 * c - a1 * s;
      r[2 * i + 1] = a0 * s + a1 * c;
    }
  }
}

std::vector<float> AxialRope::table(const Tensor& coords, bool inverse) const {
  if (coords.ndim() != 2 || coords.dim(1) != 2) {
    throw std::invalid_argument("AxialRope: coords must be [T,2]");
  }
  const std::int64_t t = coords.dim(0);
  const std::int64_t nf = head_dim_ / 4;
  const float sign = inverse ? -1.0f : 1.0f;
  std::vector<float> cs(static_cast<std::size_t>(t * nf * 4));
  for (std::int64_t tok = 0; tok < t; ++tok) {
    const float row = coords.at2(tok, 0);
    const float col = coords.at2(tok, 1);
    float* p = cs.data() + tok * nf * 4;
    for (std::int64_t i = 0; i < nf; ++i) {
      const float ar = sign * row * freqs_[static_cast<std::size_t>(i)];
      const float ac = sign * col * freqs_[static_cast<std::size_t>(i)];
      p[i * 4 + 0] = std::cos(ar);
      p[i * 4 + 1] = std::sin(ar);
      p[i * 4 + 2] = std::cos(ac);
      p[i * 4 + 3] = std::sin(ac);
    }
  }
  return cs;
}

Tensor window_coords(std::int64_t row0, std::int64_t col0, std::int64_t win_h,
                     std::int64_t win_w, std::int64_t grid_h,
                     std::int64_t grid_w) {
  Tensor coords({win_h * win_w, 2});
  for (std::int64_t r = 0; r < win_h; ++r) {
    for (std::int64_t cc = 0; cc < win_w; ++cc) {
      const std::int64_t tok = r * win_w + cc;
      coords.at2(tok, 0) =
          static_cast<float>(((row0 + r) % grid_h + grid_h) % grid_h);
      coords.at2(tok, 1) =
          static_cast<float>(((col0 + cc) % grid_w + grid_w) % grid_w);
    }
  }
  return coords;
}

}  // namespace aeris::nn
