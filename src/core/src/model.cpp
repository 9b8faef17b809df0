#include "aeris/core/model.hpp"

#include <algorithm>
#include <stdexcept>


namespace aeris::core {
namespace {

// Ctx slot: the batch size of the matching forward (doubles as the
// forward-happened marker for backward).
struct ModelCache {
  std::int64_t batch = 0;
};

}  // namespace

namespace {

void check_grid(const ModelConfig& cfg) {
  if (cfg.h % cfg.win_h != 0 || cfg.w % cfg.win_w != 0) {
    throw std::invalid_argument("AerisModel: windows must tile the grid");
  }
  if (cfg.win_h % 2 != 0) {
    throw std::invalid_argument("AerisModel: window size must be even (shift)");
  }
}

}  // namespace

AerisModel::AerisModel(const ModelConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      posenc_(nn::sinusoidal_posenc_2d(cfg.h, cfg.w)),
      embed_(std::make_shared<nn::Linear>("embed", cfg.in_channels, cfg.dim)),
      time_embed_(std::make_shared<nn::TimeEmbedding>("time",
                                                      cfg.time_features,
                                                      cfg.cond_dim)),
      final_norm_(std::make_shared<nn::RMSNorm>("final_norm", cfg.dim)),
      head_(std::make_shared<nn::Linear>("head", cfg.dim, cfg.out_channels)) {
  check_grid(cfg);
  SwinBlock::Config bc;
  bc.dim = cfg.dim;
  bc.heads = cfg.heads;
  bc.ffn_hidden = cfg.ffn_hidden;
  bc.win_h = cfg.win_h;
  bc.win_w = cfg.win_w;
  bc.cond_dim = cfg.cond_dim;
  blocks_.reserve(static_cast<std::size_t>(cfg.depth));
  for (std::int64_t l = 0; l < cfg.depth; ++l) {
    blocks_.push_back(
        std::make_shared<SwinBlock>("block" + std::to_string(l), bc));
  }

  const Philox rng(seed);
  embed_->init(rng, 1);
  time_embed_->init(rng, 2);
  for (std::int64_t l = 0; l < cfg.depth; ++l) {
    blocks_[static_cast<std::size_t>(l)]->init(rng, 16 + static_cast<std::uint64_t>(l));
  }
  head_->init_zero();  // start as an identity residual model

  embed_->collect_params(params_);
  time_embed_->collect_params(params_);
  for (auto& b : blocks_) b->collect_params(params_);
  final_norm_->collect_params(params_);
  head_->collect_params(params_);
  const_params_.assign(params_.begin(), params_.end());
}

AerisModel::AerisModel(const ModelConfig& cfg, const AerisModel& backbone)
    : cfg_(cfg),
      posenc_(nn::sinusoidal_posenc_2d(cfg.h, cfg.w)),
      embed_(backbone.embed_),
      time_embed_(backbone.time_embed_),
      blocks_(backbone.blocks_),
      final_norm_(backbone.final_norm_),
      head_(std::make_shared<nn::Linear>("head", cfg.dim, cfg.out_channels)),
      shares_backbone_(true) {
  check_grid(cfg);
  const ModelConfig& dc = backbone.cfg_;
  if (cfg.in_channels != dc.in_channels || cfg.dim != dc.dim ||
      cfg.depth != dc.depth || cfg.heads != dc.heads ||
      cfg.ffn_hidden != dc.ffn_hidden || cfg.win_h != dc.win_h ||
      cfg.win_w != dc.win_w || cfg.cond_dim != dc.cond_dim ||
      cfg.time_features != dc.time_features) {
    throw std::invalid_argument(
        "AerisModel: a shared-backbone variant must match its donor in "
        "every parameter-bearing dimension (only the grid and the head's "
        "out_channels may differ)");
  }
  // The grid itself is free: no shared module reads H or W (blocks operate
  // per window), so a coarse variant can alias a fine donor's weights.
  if (cfg.out_channels == dc.out_channels) {
    nn::ParamList hp;
    head_->collect_params(hp);
    nn::ConstParamList donor_hp;
    backbone.head_->collect_params(donor_hp);
    for (std::size_t i = 0; i < hp.size(); ++i) {
      std::copy_n(donor_hp[i]->value.data(), donor_hp[i]->value.numel(),
                  hp[i]->value.data());
    }
  } else {
    head_->init_zero();
  }

  // Mutable params: the owned head only. Const params: the full list, in
  // the primary constructor's registration order.
  head_->collect_params(params_);
  embed_->collect_params(const_params_);
  time_embed_->collect_params(const_params_);
  for (const auto& b : blocks_) b->collect_params(const_params_);
  final_norm_->collect_params(const_params_);
  head_->collect_params(const_params_);
}

std::int64_t AerisModel::param_count() const {
  return nn::param_count(const_params_);
}

std::int64_t AerisModel::analytic_param_count(const ModelConfig& c) {
  const std::int64_t d = c.dim;
  // Embed / head / time trunk.
  std::int64_t n = (c.in_channels + 1) * d;          // embed (w + b)
  n += (c.time_features + 1) * c.cond_dim;           // shared time linear
  n += d;                                            // final norm gain
  n += (d + 1) * c.out_channels;                     // head
  // Per block: qkv, proj, 2 adaLN heads, swiglu.
  std::int64_t per = (d + 1) * 3 * d;                // qkv
  per += (d + 1) * d;                                // proj
  per += 2 * (c.cond_dim + 1) * 3 * d;               // adaLN heads
  per += 3 * d * c.ffn_hidden;                       // swiglu (no bias)
  return n + c.depth * per;
}

Tensor AerisModel::forward(const Tensor& x, const Tensor& t,
                           nn::FwdCtx& ctx) const {
  if (x.ndim() != 4 || x.dim(1) != cfg_.h || x.dim(2) != cfg_.w ||
      x.dim(3) != cfg_.in_channels) {
    throw std::invalid_argument("AerisModel: expected [B,H,W,Cin], got " +
                                shape_to_string(x.shape()));
  }
  if (t.ndim() != 1 || t.dim(0) != x.dim(0)) {
    throw std::invalid_argument("AerisModel: t must be [B]");
  }
  const std::int64_t batch = x.dim(0);
  if (ctx.training()) ctx.slot<ModelCache>(id_).batch = batch;
  const std::int64_t nwin = cfg_.windows();

  // Add the fixed 2D sinusoidal positional field to every channel.
  Tensor xin = x;
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t r = 0; r < cfg_.h; ++r) {
      for (std::int64_t cc = 0; cc < cfg_.w; ++cc) {
        const float pe = posenc_.at2(r, cc);
        float* p = xin.data() +
                   ((b * cfg_.h + r) * cfg_.w + cc) * cfg_.in_channels;
        for (std::int64_t ch = 0; ch < cfg_.in_channels; ++ch) p[ch] += pe;
      }
    }
  }

  Tensor cond = time_embed_->forward(t, ctx);  // [B, cond_dim]
  Tensor tokens = embed_->forward(xin, ctx);   // [B, H, W, dim]

  for (std::int64_t l = 0; l < cfg_.depth; ++l) {
    const std::int64_t shift = cfg_.shift_for_layer(l);
    Tensor wins =
        window_partition_batch(tokens, cfg_.win_h, cfg_.win_w, shift);
    Tensor out =
        blocks_[static_cast<std::size_t>(l)]->forward(wins, cond, nwin, ctx);
    tokens = window_reverse_batch(out, batch, cfg_.h, cfg_.w, cfg_.win_h,
                                  cfg_.win_w, shift);
  }

  Tensor normed = final_norm_->forward(tokens, ctx);
  return head_->forward(normed, ctx);
}

Tensor AerisModel::forward(const Tensor& x, const Tensor& t) const {
  nn::FwdCtx ctx(nn::FwdCtx::Mode::kInference);
  return forward(x, t, ctx);
}

Tensor AerisModel::backward(const Tensor& dy, nn::FwdCtx& ctx) {
  ModelCache* cache = ctx.find<ModelCache>(id_);
  if (cache == nullptr || cache->batch == 0) {
    throw std::logic_error("AerisModel: backward before forward");
  }
  const std::int64_t batch = cache->batch;

  Tensor dtokens = final_norm_->backward(head_->backward(dy, ctx), ctx);
  Tensor dcond({batch, cfg_.cond_dim});

  for (std::int64_t l = cfg_.depth - 1; l >= 0; --l) {
    const std::int64_t shift = cfg_.shift_for_layer(l);
    // partition/reverse are permutations: the adjoint of reverse is
    // partition with the same shift, and vice versa.
    Tensor dwins =
        window_partition_batch(dtokens, cfg_.win_h, cfg_.win_w, shift);
    Tensor dx =
        blocks_[static_cast<std::size_t>(l)]->backward(dwins, dcond, ctx);
    dtokens = window_reverse_batch(dx, batch, cfg_.h, cfg_.w, cfg_.win_h,
                                   cfg_.win_w, shift);
  }

  Tensor dxin = embed_->backward(dtokens, ctx);
  time_embed_->backward(dcond, ctx);
  // The positional field is an additive constant: gradient passes through.
  return dxin;
}

}  // namespace aeris::core
