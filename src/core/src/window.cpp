#include "aeris/core/window.hpp"

#include <algorithm>
#include <stdexcept>

namespace aeris::core {

Tensor roll2d(const Tensor& x, std::int64_t dy, std::int64_t dx) {
  if (x.ndim() != 3) throw std::invalid_argument("roll2d: expected [H,W,C]");
  const std::int64_t h = x.dim(0), w = x.dim(1), c = x.dim(2);
  const std::int64_t sy = ((dy % h) + h) % h;
  const std::int64_t sx = ((dx % w) + w) % w;
  if (sy == 0 && sx == 0) return x;
  Tensor out(x.shape());
  for (std::int64_t r = 0; r < h; ++r) {
    const std::int64_t src_r = (r - sy + h) % h;
    for (std::int64_t cc = 0; cc < w; ++cc) {
      const std::int64_t src_c = (cc - sx + w) % w;
      std::copy_n(x.data() + (src_r * w + src_c) * c, c,
                  out.data() + (r * w + cc) * c);
    }
  }
  return out;
}

std::int64_t window_count(std::int64_t h, std::int64_t w, std::int64_t win_h,
                          std::int64_t win_w) {
  if (win_h <= 0 || win_w <= 0 || h % win_h != 0 || w % win_w != 0) {
    throw std::invalid_argument("window grid must divide the token grid");
  }
  return (h / win_h) * (w / win_w);
}

namespace {

// Moves c-channel tokens between a [batch, h, w, c] grid and a
// [batch * windows, win_h * win_w, c] window stack in one pass, with the
// cyclic shift folded into the index map: token (r, cc) of window
// (wr, wc) is grid pixel ((wr*win_h + r + shift) % h, (wc*win_w + cc +
// shift) % w), i.e. the grid rolled by (-shift, -shift).
void gather_windows(std::int64_t batch, std::int64_t h, std::int64_t w,
                    std::int64_t c, std::int64_t win_h, std::int64_t win_w,
                    std::int64_t shift, bool to_windows, const float* src,
                    float* dst) {
  const std::int64_t nwin = window_count(h, w, win_h, win_w);
  const std::int64_t wx = w / win_w;
  const std::int64_t sy = ((shift % h) + h) % h;
  const std::int64_t sx = ((shift % w) + w) % w;
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t win = 0; win < nwin; ++win) {
      const std::int64_t wr = win / wx, wc = win % wx;
      for (std::int64_t r = 0; r < win_h; ++r) {
        const std::int64_t gr = (wr * win_h + r + sy) % h;
        for (std::int64_t cc = 0; cc < win_w; ++cc) {
          const std::int64_t gc = (wc * win_w + cc + sx) % w;
          const std::int64_t tok = ((b * nwin + win) * win_h * win_w +
                                    r * win_w + cc) * c;
          const std::int64_t px = ((b * h + gr) * w + gc) * c;
          if (to_windows) {
            std::copy_n(src + px, c, dst + tok);
          } else {
            std::copy_n(src + tok, c, dst + px);
          }
        }
      }
    }
  }
}

}  // namespace

Tensor window_partition(const Tensor& x, std::int64_t win_h,
                        std::int64_t win_w, std::int64_t shift) {
  if (x.ndim() != 3) throw std::invalid_argument("window_partition: [H,W,C]");
  const std::int64_t h = x.dim(0), w = x.dim(1), c = x.dim(2);
  Tensor out({window_count(h, w, win_h, win_w), win_h * win_w, c});
  gather_windows(1, h, w, c, win_h, win_w, shift, /*to_windows=*/true,
                 x.data(), out.data());
  return out;
}

Tensor window_partition_batch(const Tensor& x, std::int64_t win_h,
                              std::int64_t win_w, std::int64_t shift) {
  if (x.ndim() != 4) {
    throw std::invalid_argument("window_partition_batch: [B,H,W,C]");
  }
  const std::int64_t b = x.dim(0), h = x.dim(1), w = x.dim(2), c = x.dim(3);
  Tensor out({b * window_count(h, w, win_h, win_w), win_h * win_w, c});
  gather_windows(b, h, w, c, win_h, win_w, shift, /*to_windows=*/true,
                 x.data(), out.data());
  return out;
}

Tensor window_reverse(const Tensor& windows, std::int64_t h, std::int64_t w,
                      std::int64_t win_h, std::int64_t win_w,
                      std::int64_t shift) {
  Tensor out = window_reverse_batch(windows, 1, h, w, win_h, win_w, shift);
  return std::move(out).reshaped({h, w, windows.dim(2)});
}

Tensor window_reverse_batch(const Tensor& windows, std::int64_t batch,
                            std::int64_t h, std::int64_t w,
                            std::int64_t win_h, std::int64_t win_w,
                            std::int64_t shift) {
  const std::int64_t nwin = window_count(h, w, win_h, win_w);
  if (windows.ndim() != 3 || windows.dim(0) != batch * nwin ||
      windows.dim(1) != win_h * win_w) {
    throw std::invalid_argument("window_reverse: bad windows shape " +
                                shape_to_string(windows.shape()));
  }
  const std::int64_t c = windows.dim(2);
  Tensor out({batch, h, w, c});
  gather_windows(batch, h, w, c, win_h, win_w, shift, /*to_windows=*/false,
                 windows.data(), out.data());
  return out;
}

Tensor field_to_tokens(const Tensor& field) {
  if (field.ndim() != 3) throw std::invalid_argument("field_to_tokens: [V,H,W]");
  const std::int64_t v = field.dim(0), h = field.dim(1), w = field.dim(2);
  Tensor out({h, w, v});
  for (std::int64_t vv = 0; vv < v; ++vv) {
    const float* src = field.data() + vv * h * w;
    for (std::int64_t r = 0; r < h; ++r) {
      for (std::int64_t cc = 0; cc < w; ++cc) {
        out[(r * w + cc) * v + vv] = src[r * w + cc];
      }
    }
  }
  return out;
}

Tensor tokens_to_field(const Tensor& tokens) {
  if (tokens.ndim() != 3) throw std::invalid_argument("tokens_to_field: [H,W,V]");
  const std::int64_t h = tokens.dim(0), w = tokens.dim(1), v = tokens.dim(2);
  Tensor out({v, h, w});
  for (std::int64_t r = 0; r < h; ++r) {
    for (std::int64_t cc = 0; cc < w; ++cc) {
      const float* src = tokens.data() + (r * w + cc) * v;
      for (std::int64_t vv = 0; vv < v; ++vv) {
        out[vv * h * w + r * w + cc] = src[vv];
      }
    }
  }
  return out;
}

}  // namespace aeris::core
