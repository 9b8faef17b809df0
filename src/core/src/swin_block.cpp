#include "aeris/core/swin_block.hpp"

#include <stdexcept>

#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

// Ctx slot: everything the block-level backward consumes. Sublayer
// activations (attention q/k/v, FFN pre-activations, ...) live in the same
// ctx under the sublayers' own ids.
struct SwinBlockCache {
  std::int64_t wps = 1;
  Tensor x, h;                  // block inputs of each sublayer
  Tensor norm1_out, norm2_out;  // normalized activations
  Tensor attn_out, ffn_out;     // sublayer outputs (pre-gate)
  nn::AdaLNHead::Mod mod_a, mod_f;
};

}  // namespace

SwinBlock::SwinBlock(std::string name, const Config& cfg)
    : cfg_(cfg),
      adaln_attn_(name + ".attn", cfg.cond_dim, cfg.dim),
      adaln_ffn_(name + ".ffn", cfg.cond_dim, cfg.dim),
      norm1_(name + ".norm1", cfg.dim, /*elementwise_affine=*/false),
      norm2_(name + ".norm2", cfg.dim, /*elementwise_affine=*/false),
      attn_(name + ".attn", cfg.dim, cfg.heads, cfg.win_h, cfg.win_w),
      ffn_(name + ".ffn", cfg.dim, cfg.ffn_hidden) {}

void SwinBlock::init(const Philox& rng, std::uint64_t index) {
  attn_.init(rng, index * 8 + 0);
  ffn_.init(rng, index * 8 + 1);
  // AdaLN heads stay zero-initialized (identity blocks at start).
}

Tensor SwinBlock::forward(const Tensor& x, const Tensor& cond,
                          std::int64_t windows_per_sample,
                          nn::FwdCtx& ctx) const {
  const std::int64_t wps = windows_per_sample;
  nn::AdaLNHead::Mod mod_a = adaln_attn_.forward(cond, ctx);
  nn::AdaLNHead::Mod mod_f = adaln_ffn_.forward(cond, ctx);

  // The elementwise ops write over their input: inference hands each
  // activation on, training keeps it for backward and hands on a copy.
  const bool keep = ctx.training();
  auto hand_on = [keep](Tensor& t) { return keep ? Tensor(t) : std::move(t); };

  Tensor norm1_out = norm1_.forward(x, ctx);
  Tensor h_mod = nn::modulate(hand_on(norm1_out), mod_a, wps);
  Tensor attn_out = attn_.forward(h_mod, ctx);
  Tensor h = nn::apply_gate(x, hand_on(attn_out), mod_a.gate, wps);

  Tensor norm2_out = norm2_.forward(h, ctx);
  Tensor f_mod = nn::modulate(hand_on(norm2_out), mod_f, wps);
  Tensor ffn_out = ffn_.forward(f_mod, ctx);
  Tensor y = nn::apply_gate(h, hand_on(ffn_out), mod_f.gate, wps);

  if (keep) {
    SwinBlockCache& cache = ctx.slot<SwinBlockCache>(id_);
    cache.wps = wps;
    cache.x = x;
    cache.h = std::move(h);
    cache.norm1_out = std::move(norm1_out);
    cache.norm2_out = std::move(norm2_out);
    cache.attn_out = std::move(attn_out);
    cache.ffn_out = std::move(ffn_out);
    cache.mod_a = std::move(mod_a);
    cache.mod_f = std::move(mod_f);
  }
  return y;
}

Tensor SwinBlock::backward(const Tensor& dy, Tensor& dcond, nn::FwdCtx& ctx) {
  SwinBlockCache* c = ctx.find<SwinBlockCache>(id_);
  if (c == nullptr || c->ffn_out.empty()) {
    throw std::logic_error("SwinBlock: backward before forward");
  }
  // ---- FFN sublayer ----
  Tensor dffn_out, dgate_f;
  nn::apply_gate_backward(c->ffn_out, c->mod_f.gate, dy, dffn_out, dgate_f,
                          c->wps);
  Tensor dh = dy;  // residual path

  Tensor df_mod = ffn_.backward(dffn_out, ctx);
  nn::AdaLNHead::Mod dmod_f;
  Tensor dnorm2 =
      nn::modulate_backward(c->norm2_out, c->mod_f, df_mod, dmod_f, c->wps);
  dmod_f.gate = dgate_f;
  add_(dcond, adaln_ffn_.backward(dmod_f, ctx));
  add_(dh, norm2_.backward(dnorm2, ctx));

  // ---- attention sublayer ----
  Tensor dattn_out, dgate_a;
  nn::apply_gate_backward(c->attn_out, c->mod_a.gate, dh, dattn_out, dgate_a,
                          c->wps);
  Tensor dx = dh;  // residual path

  Tensor dh_mod = attn_.backward(dattn_out, ctx);
  nn::AdaLNHead::Mod dmod_a;
  Tensor dnorm1 =
      nn::modulate_backward(c->norm1_out, c->mod_a, dh_mod, dmod_a, c->wps);
  dmod_a.gate = dgate_a;
  add_(dcond, adaln_attn_.backward(dmod_a, ctx));
  add_(dx, norm1_.backward(dnorm1, ctx));
  return dx;
}

void SwinBlock::collect_params(nn::ParamList& out) {
  adaln_attn_.collect_params(out);
  adaln_ffn_.collect_params(out);
  norm1_.collect_params(out);
  norm2_.collect_params(out);
  attn_.collect_params(out);
  ffn_.collect_params(out);
}

void SwinBlock::collect_params(nn::ConstParamList& out) const {
  adaln_attn_.collect_params(out);
  adaln_ffn_.collect_params(out);
  norm1_.collect_params(out);
  norm2_.collect_params(out);
  attn_.collect_params(out);
  ffn_.collect_params(out);
}

}  // namespace aeris::core
