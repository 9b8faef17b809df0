#include "aeris/nn/adaln.hpp"

#include <stdexcept>

#include "aeris/tensor/ops.hpp"

namespace aeris::nn {

AdaLNHead::AdaLNHead(std::string name, std::int64_t cond_dim, std::int64_t dim)
    : dim_(dim), head_(name + ".adaln", cond_dim, 3 * dim, /*bias=*/true) {
  head_.init_zero();
}

AdaLNHead::Mod AdaLNHead::forward(const Tensor& cond, FwdCtx& ctx) const {
  const Tensor smg = head_.forward(cond, ctx);  // [B, 3*dim]
  Mod m;
  m.shift = slice(smg, 1, 0, dim_);
  m.scale = slice(smg, 1, dim_, 2 * dim_);
  m.gate = slice(smg, 1, 2 * dim_, 3 * dim_);
  return m;
}

Tensor AdaLNHead::backward(const Mod& dmod, FwdCtx& ctx) {
  const Tensor* parts[] = {&dmod.shift, &dmod.scale, &dmod.gate};
  Tensor dsmg = concat(std::span<const Tensor* const>(parts, 3), 1);
  return head_.backward(dsmg, ctx);
}

void AdaLNHead::collect_params(ParamList& out) { head_.collect_params(out); }

void AdaLNHead::collect_params(ConstParamList& out) const {
  head_.collect_params(out);
}

namespace {

void check_mod(const Tensor& x, const Tensor& mod_field,
               std::int64_t windows_per_sample) {
  if (x.ndim() != 3) throw std::invalid_argument("modulate: x must be [B,T,C]");
  if (mod_field.ndim() != 2 || mod_field.dim(1) != x.dim(2)) {
    throw std::invalid_argument("modulate: mod must be [B_samples, C]");
  }
  if (windows_per_sample <= 0 ||
      x.dim(0) != mod_field.dim(0) * windows_per_sample) {
    throw std::invalid_argument("modulate: window/sample mismatch");
  }
}

}  // namespace

Tensor modulate(Tensor x, const AdaLNHead::Mod& mod,
                std::int64_t windows_per_sample) {
  check_mod(x, mod.scale, windows_per_sample);
  const std::int64_t b = x.dim(0), t = x.dim(1), c = x.dim(2);
  for (std::int64_t bb = 0; bb < b; ++bb) {
    const std::int64_t s = bb / windows_per_sample;
    const float* pscale = mod.scale.data() + s * c;
    const float* pshift = mod.shift.data() + s * c;
    for (std::int64_t tok = 0; tok < t; ++tok) {
      float* px = x.data() + (bb * t + tok) * c;
      for (std::int64_t cc = 0; cc < c; ++cc) {
        px[cc] = px[cc] * (1.0f + pscale[cc]) + pshift[cc];
      }
    }
  }
  return x;
}

Tensor modulate_backward(const Tensor& x, const AdaLNHead::Mod& mod,
                         const Tensor& dh, AdaLNHead::Mod& dmod,
                         std::int64_t windows_per_sample) {
  check_mod(x, mod.scale, windows_per_sample);
  const std::int64_t b = x.dim(0), t = x.dim(1), c = x.dim(2);
  dmod.shift = Tensor(mod.shift.shape());
  dmod.scale = Tensor(mod.scale.shape());
  dmod.gate = Tensor(mod.gate.shape());
  Tensor dx(x.shape());
  for (std::int64_t bb = 0; bb < b; ++bb) {
    const std::int64_t s = bb / windows_per_sample;
    const float* pscale = mod.scale.data() + s * c;
    float* pdscale = dmod.scale.data() + s * c;
    float* pdshift = dmod.shift.data() + s * c;
    for (std::int64_t tok = 0; tok < t; ++tok) {
      const float* px = x.data() + (bb * t + tok) * c;
      const float* pdh = dh.data() + (bb * t + tok) * c;
      float* pdx = dx.data() + (bb * t + tok) * c;
      for (std::int64_t cc = 0; cc < c; ++cc) {
        pdx[cc] = pdh[cc] * (1.0f + pscale[cc]);
        pdscale[cc] += pdh[cc] * px[cc];
        pdshift[cc] += pdh[cc];
      }
    }
  }
  return dx;
}

Tensor apply_gate(const Tensor& x, Tensor y, const Tensor& gate,
                  std::int64_t windows_per_sample) {
  check_mod(x, gate, windows_per_sample);
  if (y.shape() != x.shape()) {
    throw std::invalid_argument("apply_gate: x/y shape mismatch");
  }
  const std::int64_t b = x.dim(0), t = x.dim(1), c = x.dim(2);
  for (std::int64_t bb = 0; bb < b; ++bb) {
    const float* pg = gate.data() + (bb / windows_per_sample) * c;
    for (std::int64_t tok = 0; tok < t; ++tok) {
      const std::int64_t off = (bb * t + tok) * c;
      for (std::int64_t cc = 0; cc < c; ++cc) {
        y[off + cc] = x[off + cc] + pg[cc] * y[off + cc];
      }
    }
  }
  return y;
}

void apply_gate_backward(const Tensor& y, const Tensor& gate,
                         const Tensor& dout, Tensor& dy, Tensor& dgate,
                         std::int64_t windows_per_sample) {
  check_mod(y, gate, windows_per_sample);
  const std::int64_t b = y.dim(0), t = y.dim(1), c = y.dim(2);
  dy = Tensor(y.shape());
  dgate = Tensor(gate.shape());
  for (std::int64_t bb = 0; bb < b; ++bb) {
    const std::int64_t s = bb / windows_per_sample;
    const float* pg = gate.data() + s * c;
    float* pdg = dgate.data() + s * c;
    for (std::int64_t tok = 0; tok < t; ++tok) {
      const std::int64_t off = (bb * t + tok) * c;
      for (std::int64_t cc = 0; cc < c; ++cc) {
        dy[off + cc] = dout[off + cc] * pg[cc];
        pdg[cc] += dout[off + cc] * y[off + cc];
      }
    }
  }
}

}  // namespace aeris::nn
