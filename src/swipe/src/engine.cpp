#include "aeris/swipe/engine.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "aeris/nn/embedding.hpp"
#include "aeris/swipe/checkpoint.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::swipe {
namespace {

// Message tag spaces (low bits carry the microbatch).
constexpr std::uint64_t kFwdX = std::uint64_t{1} << 20;
constexpr std::uint64_t kFwdCond = std::uint64_t{2} << 20;
constexpr std::uint64_t kBwdX = std::uint64_t{3} << 20;
constexpr std::uint64_t kBwdCond = std::uint64_t{4} << 20;

// The trace flag is read once per process: getenv costs a libc lock +
// environ scan, and the old code paid it twice per pipeline op.
const bool kTraceEnabled = std::getenv("AERIS_TRACE") != nullptr;

// Gradient buckets target this many floats (256 KiB): small enough that
// the first bucket's allreduce launches well before backward drains,
// large enough that per-bucket collective overhead stays negligible.
constexpr std::size_t kGradBucketFloats = 64 * 1024;

std::vector<int> world_members(int n) {
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

// Every shape-determining knob of the engine, in a fixed order. Saved into
// checkpoints and verified field-by-field on load, so a checkpoint written
// under a different model/grid config fails with a message naming the
// mismatching knob instead of a cryptic size error (or, worse, a
// CRC-clean payload sliced into the wrong parameters).
struct ConfigField {
  const char* name;
  std::int64_t value;
};

std::vector<ConfigField> config_fingerprint(const EngineConfig& cfg) {
  return {
      {"model.h", cfg.model.h},
      {"model.w", cfg.model.w},
      {"model.in_channels", cfg.model.in_channels},
      {"model.out_channels", cfg.model.out_channels},
      {"model.dim", cfg.model.dim},
      {"model.depth", cfg.model.depth},
      {"model.heads", cfg.model.heads},
      {"model.ffn_hidden", cfg.model.ffn_hidden},
      {"model.win_h", cfg.model.win_h},
      {"model.win_w", cfg.model.win_w},
      {"model.cond_dim", cfg.model.cond_dim},
      {"model.time_features", cfg.model.time_features},
      {"grid.dp", cfg.grid.dp},
      {"grid.pp", cfg.grid.pp},
      {"grid.wp_a", cfg.grid.wp_a},
      {"grid.wp_b", cfg.grid.wp_b},
      {"grid.sp", cfg.grid.sp},
      {"microbatches", cfg.microbatches},
  };
}

}  // namespace

// ---------------------------------------------------------------- stages

SwipeEngine::InputStage::InputStage(const core::ModelConfig& m)
    : embed("embed", m.in_channels, m.dim),
      time_embed("time", m.time_features, m.cond_dim) {}

SwipeEngine::BlockStage::BlockStage(std::int64_t layer,
                                    const core::ModelConfig& m)
    : adaln_attn("block" + std::to_string(layer) + ".attn", m.cond_dim, m.dim),
      adaln_ffn("block" + std::to_string(layer) + ".ffn", m.cond_dim, m.dim),
      norm1("block" + std::to_string(layer) + ".norm1", m.dim, false),
      norm2("block" + std::to_string(layer) + ".norm2", m.dim, false),
      attn("block" + std::to_string(layer) + ".attn", m.dim, m.heads, m.win_h,
           m.win_w),
      ffn("block" + std::to_string(layer) + ".ffn", m.dim, m.ffn_hidden) {}

namespace {

// Ctx slot for a BlockStage: what the stage-level backward consumes
// (sublayer activations live under the sublayers' own ids).
struct BlockStageCache {
  Tensor x, h, norm1_out, norm2_out, attn_out, ffn_out;
  nn::AdaLNHead::Mod mod_a, mod_f;
};

}  // namespace

Tensor SwipeEngine::BlockStage::forward(Communicator& sp, const Tensor& x_in,
                                        const Tensor& cond_in,
                                        nn::FwdCtx& ctx) const {
  const std::int64_t nwin = x_in.dim(0);
  BlockStageCache& cache = ctx.slot<BlockStageCache>(id);
  cache.x = x_in;
  cache.mod_a = adaln_attn.forward(cond_in, ctx);
  cache.mod_f = adaln_ffn.forward(cond_in, ctx);

  cache.norm1_out = norm1.forward(x_in, ctx);
  Tensor h_mod = nn::modulate(cache.norm1_out, cache.mod_a, nwin);
  cache.attn_out = attn.forward(sp, h_mod, ctx);
  cache.h = nn::apply_gate(x_in, cache.attn_out, cache.mod_a.gate, nwin);

  cache.norm2_out = norm2.forward(cache.h, ctx);
  Tensor f_mod = nn::modulate(cache.norm2_out, cache.mod_f, nwin);
  cache.ffn_out = ffn.forward(f_mod, ctx);
  return nn::apply_gate(cache.h, cache.ffn_out, cache.mod_f.gate, nwin);
}

Tensor SwipeEngine::BlockStage::backward(Communicator& sp, const Tensor& dy,
                                         Tensor& dcond, nn::FwdCtx& ctx) {
  BlockStageCache* c = ctx.find<BlockStageCache>(id);
  if (c == nullptr || c->ffn_out.empty()) {
    throw std::logic_error("BlockStage: backward before forward");
  }
  const std::int64_t nwin = c->x.dim(0);
  Tensor dffn_out, dgate_f;
  nn::apply_gate_backward(c->ffn_out, c->mod_f.gate, dy, dffn_out, dgate_f,
                          nwin);
  Tensor dh = dy;

  Tensor df_mod = ffn.backward(dffn_out, ctx);
  nn::AdaLNHead::Mod dmod_f;
  Tensor dnorm2 =
      nn::modulate_backward(c->norm2_out, c->mod_f, df_mod, dmod_f, nwin);
  dmod_f.gate = dgate_f;
  add_(dcond, adaln_ffn.backward(dmod_f, ctx));
  add_(dh, norm2.backward(dnorm2, ctx));

  Tensor dattn_out, dgate_a;
  nn::apply_gate_backward(c->attn_out, c->mod_a.gate, dh, dattn_out, dgate_a,
                          nwin);
  Tensor dx = dh;

  Tensor dh_mod = attn.backward(sp, dattn_out, ctx);
  nn::AdaLNHead::Mod dmod_a;
  Tensor dnorm1 =
      nn::modulate_backward(c->norm1_out, c->mod_a, dh_mod, dmod_a, nwin);
  dmod_a.gate = dgate_a;
  add_(dcond, adaln_attn.backward(dmod_a, ctx));
  add_(dx, norm1.backward(dnorm1, ctx));
  return dx;
}

void SwipeEngine::BlockStage::collect_params(nn::ParamList& out) {
  adaln_attn.collect_params(out);
  adaln_ffn.collect_params(out);
  norm1.collect_params(out);
  norm2.collect_params(out);
  attn.collect_params(out);
  ffn.collect_params(out);
}

SwipeEngine::OutputStage::OutputStage(const core::ModelConfig& m)
    : final_norm("final_norm", m.dim), head("head", m.dim, m.out_channels) {}

// ---------------------------------------------------------------- engine

SwipeEngine::SwipeEngine(World& world, const EngineConfig& cfg, int my_rank)
    : world_(world),
      cfg_(cfg),
      topo_(world, cfg.grid, my_rank),
      replicas_(topo_.replica_group()),
      everyone_(world, world_members(world.size()), my_rank, 9'000'000),
      trigflow_(cfg.train.trigflow),
      rng_(cfg.train.seed),
      posenc_(nn::sinusoidal_posenc_2d(cfg.model.h, cfg.model.w)),
      lat_weights_(cfg.train.weights.lat.empty()
                       ? core::latitude_weights(cfg.model.h)
                       : cfg.train.weights.lat),
      var_weights_(cfg.train.weights.var.empty()
                       ? core::uniform_weights(cfg.model.out_channels)
                       : cfg.train.weights.var) {
  const core::ModelConfig& m = cfg.model;
  if (cfg.grid.pp != m.depth + 2) {
    throw std::invalid_argument("SwipeEngine: PP must equal depth + 2");
  }
  if ((m.h / m.win_h) % cfg.grid.wp_a != 0 ||
      (m.w / m.win_w) % cfg.grid.wp_b != 0) {
    throw std::invalid_argument(
        "SwipeEngine: WP grid must evenly divide the window grid");
  }
  if ((m.win_h * m.win_w) % cfg.grid.sp != 0 || m.heads % cfg.grid.sp != 0) {
    throw std::invalid_argument("SwipeEngine: SP must divide tokens and heads");
  }
  if (cfg_.train.objective == core::Objective::kEdm) {
    throw std::invalid_argument(
        "SwipeEngine: distributed engine implements TrigFlow/deterministic; "
        "the EDM baseline trains single-rank");
  }

  // Build this rank's stage with the *same* deterministic init as the
  // single-rank AerisModel.
  const Philox init_rng(cfg.train.seed);
  const int pp = topo_.coords().pp;
  if (pp == 0) {
    input_.emplace(m);
    input_->embed.init(init_rng, 1);
    input_->time_embed.init(init_rng, 2);
    input_->embed.collect_params(params_);
    input_->time_embed.collect_params(params_);
  } else if (pp <= m.depth) {
    const std::int64_t layer = pp - 1;
    block_.emplace(layer, m);
    block_->attn.init(init_rng, (16 + static_cast<std::uint64_t>(layer)) * 8);
    block_->ffn.init(init_rng,
                     (16 + static_cast<std::uint64_t>(layer)) * 8 + 1);
    block_->collect_params(params_);
  } else {
    output_.emplace(m);
    output_->head.init_zero();
    output_->final_norm.collect_params(params_);
    output_->head.collect_params(params_);
  }
  opt_.emplace(params_, cfg.train.adam);

  // Partition the stage's parameters into contiguous gradient buckets.
  std::size_t i = 0;
  while (i < params_.size()) {
    GradBucket b;
    b.begin = i;
    std::size_t elems = 0;
    do {
      elems += static_cast<std::size_t>(params_[i]->numel());
      ++i;
    } while (i < params_.size() && elems < kGradBucketFloats);
    b.end = i;
    b.buf.resize(elems);
    buckets_.push_back(std::move(b));
  }
}

WindowLayout SwipeEngine::layer_layout(std::int64_t layer) const {
  const core::ModelConfig& m = cfg_.model;
  return WindowLayout(m.h, m.w, m.win_h, m.win_w, cfg_.grid.wp_a,
                      cfg_.grid.wp_b, cfg_.grid.sp, m.shift_for_layer(layer));
}

WindowLayout SwipeEngine::output_layout() const { return layer_layout(0); }

namespace {

/// Layout of the activations a stage holds (== the layout it received).
std::int64_t stage_layer(int pp) { return pp - 1; }

}  // namespace

void SwipeEngine::send_forward(const Tensor& x_local, const Tensor& cond,
                               int mb) {
  const int pp = topo_.coords().pp;
  const core::ModelConfig& m = cfg_.model;
  const WindowLayout from =
      pp == 0 ? layer_layout(0) : layer_layout(stage_layer(pp));
  const WindowLayout to = (pp + 1 <= m.depth) ? layer_layout(stage_layer(pp + 1))
                                              : output_layout();
  const ReshardPlan plan =
      make_reshard_plan(from, to, topo_.coords().wp, topo_.coords().sp);
  const std::int64_t c = x_local.dim(-1);
  const std::int64_t n = x_local.numel() / c;
  (void)n;

  for (int w = 0; w < cfg_.grid.wp(); ++w) {
    for (int s = 0; s < cfg_.grid.sp; ++s) {
      const int dst = rank_of(cfg_.grid, {topo_.coords().dp, pp + 1, w, s});
      const auto& idx = plan.send[static_cast<std::size_t>(w * cfg_.grid.sp + s)];
      std::vector<float> buf;
      buf.reserve(idx.size() * static_cast<std::size_t>(c));
      for (const std::int64_t i : idx) {
        const float* p = x_local.data() + i * c;
        buf.insert(buf.end(), p, p + c);
      }
      world_.send(topo_.rank(), dst, kFwdX + static_cast<std::uint64_t>(mb),
                  std::move(buf), Traffic::kP2P);
      if (w == topo_.coords().wp && s == topo_.coords().sp) {
        world_.send(topo_.rank(), dst,
                    kFwdCond + static_cast<std::uint64_t>(mb),
                    std::vector<float>(cond.flat().begin(), cond.flat().end()),
                    Traffic::kP2P);
      }
    }
  }
}

namespace {

/// Drains pre-posted irecvs in arrival order: repeatedly claims whatever
/// has already landed (disjoint scatter targets make the result
/// order-independent) and only blocks when nothing is ready. This is what
/// keeps a stage boundary from serializing on one mailbox wakeup per
/// source.
template <typename Fn>
void drain_in_arrival_order(std::vector<PendingMsg>& pend, Fn&& handle) {
  std::vector<bool> done(pend.size(), false);
  std::size_t remaining = pend.size();
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t i = 0; i < pend.size(); ++i) {
      if (done[i] || !pend[i].test()) continue;
      handle(i, pend[i].wait());
      done[i] = true;
      --remaining;
      progressed = true;
    }
    if (progressed) continue;
    for (std::size_t i = 0; i < pend.size(); ++i) {
      if (done[i]) continue;
      handle(i, pend[i].wait());
      done[i] = true;
      --remaining;
      break;
    }
  }
}

}  // namespace

std::vector<PendingMsg> SwipeEngine::post_recv_forward(int mb) {
  const int pp = topo_.coords().pp;
  std::vector<PendingMsg> pend;
  pend.reserve(static_cast<std::size_t>(cfg_.grid.wp() * cfg_.grid.sp) + 1);
  for (int w = 0; w < cfg_.grid.wp(); ++w) {
    for (int s = 0; s < cfg_.grid.sp; ++s) {
      const int src = rank_of(cfg_.grid, {topo_.coords().dp, pp - 1, w, s});
      pend.push_back(world_.irecv(topo_.rank(), src,
                                  kFwdX + static_cast<std::uint64_t>(mb)));
    }
  }
  const int cond_src =
      rank_of(cfg_.grid, {topo_.coords().dp, pp - 1, topo_.coords().wp,
                          topo_.coords().sp});
  pend.push_back(world_.irecv(topo_.rank(), cond_src,
                              kFwdCond + static_cast<std::uint64_t>(mb)));
  return pend;
}

std::pair<Tensor, Tensor> SwipeEngine::complete_recv_forward(
    std::vector<PendingMsg>& pend, std::int64_t n_local) {
  const int pp = topo_.coords().pp;
  const core::ModelConfig& m = cfg_.model;
  const WindowLayout from =
      (pp - 1 == 0) ? layer_layout(0) : layer_layout(stage_layer(pp - 1));
  const WindowLayout to =
      pp <= m.depth ? layer_layout(stage_layer(pp)) : output_layout();
  const ReshardPlan plan =
      make_reshard_plan(from, to, topo_.coords().wp, topo_.coords().sp);
  const std::int64_t c = m.dim;

  Tensor x({n_local, c});
  Tensor cond;
  const std::size_t cond_idx = pend.size() - 1;
  drain_in_arrival_order(pend, [&](std::size_t i, std::vector<float> buf) {
    if (i == cond_idx) {
      const std::int64_t cdim = static_cast<std::int64_t>(buf.size());
      cond = Tensor({1, cdim}, buf);
      return;
    }
    const auto& idx = plan.recv[i];
    if (buf.size() != idx.size() * static_cast<std::size_t>(c)) {
      throw std::runtime_error("recv_forward: payload size mismatch");
    }
    for (std::size_t k = 0; k < idx.size(); ++k) {
      std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(
                                    k * static_cast<std::size_t>(c)),
                  c, x.data() + idx[k] * c);
    }
  });
  return {std::move(x), std::move(cond)};
}

void SwipeEngine::send_backward(const Tensor& dx_local, const Tensor& dcond,
                                int mb) {
  const int pp = topo_.coords().pp;
  const core::ModelConfig& m = cfg_.model;
  // Gradient of *my input*, which the previous stage produced: reverse the
  // edge (pp-1 -> pp) exchange.
  const WindowLayout from =
      (pp - 1 == 0) ? layer_layout(0) : layer_layout(stage_layer(pp - 1));
  const WindowLayout to =
      pp <= m.depth ? layer_layout(stage_layer(pp)) : output_layout();
  const ReshardPlan plan =
      make_reshard_plan(from, to, topo_.coords().wp, topo_.coords().sp);
  const std::int64_t c = dx_local.dim(-1);

  for (int w = 0; w < cfg_.grid.wp(); ++w) {
    for (int s = 0; s < cfg_.grid.sp; ++s) {
      const int dst = rank_of(cfg_.grid, {topo_.coords().dp, pp - 1, w, s});
      const auto& idx = plan.recv[static_cast<std::size_t>(w * cfg_.grid.sp + s)];
      std::vector<float> buf;
      buf.reserve(idx.size() * static_cast<std::size_t>(c));
      for (const std::int64_t i : idx) {
        const float* p = dx_local.data() + i * c;
        buf.insert(buf.end(), p, p + c);
      }
      world_.send(topo_.rank(), dst, kBwdX + static_cast<std::uint64_t>(mb),
                  std::move(buf), Traffic::kP2P);
      if (w == topo_.coords().wp && s == topo_.coords().sp) {
        world_.send(
            topo_.rank(), dst, kBwdCond + static_cast<std::uint64_t>(mb),
            std::vector<float>(dcond.flat().begin(), dcond.flat().end()),
            Traffic::kP2P);
      }
    }
  }
}

std::vector<PendingMsg> SwipeEngine::post_recv_backward(int mb) {
  const int pp = topo_.coords().pp;
  std::vector<PendingMsg> pend;
  pend.reserve(static_cast<std::size_t>(cfg_.grid.wp() * cfg_.grid.sp) + 1);
  for (int w = 0; w < cfg_.grid.wp(); ++w) {
    for (int s = 0; s < cfg_.grid.sp; ++s) {
      const int src = rank_of(cfg_.grid, {topo_.coords().dp, pp + 1, w, s});
      pend.push_back(world_.irecv(topo_.rank(), src,
                                  kBwdX + static_cast<std::uint64_t>(mb)));
    }
  }
  const int cond_src =
      rank_of(cfg_.grid, {topo_.coords().dp, pp + 1, topo_.coords().wp,
                          topo_.coords().sp});
  pend.push_back(world_.irecv(topo_.rank(), cond_src,
                              kBwdCond + static_cast<std::uint64_t>(mb)));
  return pend;
}

std::pair<Tensor, Tensor> SwipeEngine::complete_recv_backward(
    std::vector<PendingMsg>& pend, std::int64_t n_local) {
  const int pp = topo_.coords().pp;
  const core::ModelConfig& m = cfg_.model;
  // Gradient of *my output*, which the next stage consumed: reverse the
  // edge (pp -> pp+1) exchange.
  const WindowLayout from =
      pp == 0 ? layer_layout(0) : layer_layout(stage_layer(pp));
  const WindowLayout to = (pp + 1 <= m.depth) ? layer_layout(stage_layer(pp + 1))
                                              : output_layout();
  const ReshardPlan plan =
      make_reshard_plan(from, to, topo_.coords().wp, topo_.coords().sp);
  const std::int64_t c = m.dim;

  Tensor dx({n_local, c});
  Tensor dcond({1, m.cond_dim});
  const std::size_t cond_idx = pend.size() - 1;
  drain_in_arrival_order(pend, [&](std::size_t i, std::vector<float> buf) {
    if (i == cond_idx) {
      std::copy(buf.begin(), buf.end(), dcond.flat().begin());
      return;
    }
    const auto& idx = plan.send[i];
    if (buf.size() != idx.size() * static_cast<std::size_t>(c)) {
      throw std::runtime_error("recv_backward: payload size mismatch");
    }
    for (std::size_t k = 0; k < idx.size(); ++k) {
      std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(
                                    k * static_cast<std::size_t>(c)),
                  c, dx.data() + idx[k] * c);
    }
  });
  return {std::move(dx), std::move(dcond)};
}

void SwipeEngine::forward_microbatch(int mb, const DataFn& data,
                                     std::int64_t images_seen) {
  const core::ModelConfig& m = cfg_.model;
  const int pp = topo_.coords().pp;
  const std::int64_t sample =
      images_seen + topo_.coords().dp * cfg_.microbatches + mb;

  Flight flight;
  flight.sample = sample;

  if (pp == 0) {
    flight.input = *input_;
    nn::ParamList cp;
    flight.input->embed.collect_params(cp);
    flight.input->time_embed.collect_params(cp);
    nn::zero_grads(cp);

    // Diffusion time for this sample (shared across the model-parallel
    // group by the counter RNG).
    float t = 0.0f;
    if (cfg_.train.objective == core::Objective::kTrigFlow) {
      t = trigflow_.sample_time(rng_, static_cast<std::uint64_t>(sample));
    }
    Tensor cond = flight.input->time_embed.forward(Tensor({1}, t), flight.ctx);

    // Data loading: only this stage touches the dataset, and it reads
    // only the tokens it owns (paper §V-A "Data loading").
    const core::TrainExample ex = data(sample);
    const WindowLayout lay = layer_layout(0);
    const auto tokens = lay.tokens_of(topo_.coords().wp, topo_.coords().sp);
    const std::int64_t n = static_cast<std::int64_t>(tokens.size());
    const std::int64_t v = m.out_channels;
    const std::int64_t f = m.in_channels - (cfg_.train.objective ==
                                                    core::Objective::kTrigFlow
                                                ? 2 * v
                                                : v);
    Tensor xin({n, m.in_channels});
    const float sd = cfg_.train.trigflow.sigma_d;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t r = tokens[static_cast<std::size_t>(i)].r;
      const std::int64_t c = tokens[static_cast<std::size_t>(i)].c;
      float* dst = xin.data() + i * m.in_channels;
      std::int64_t ch = 0;
      if (cfg_.train.objective == core::Objective::kTrigFlow) {
        for (std::int64_t vv = 0; vv < v; ++vv) {
          const float prev = ex.prev.at3(r, c, vv);
          const float x0 = ex.target.at3(r, c, vv) - prev;
          const float z =
              sd * rng_.normal(rng_stream::kDiffusionNoise,
                               static_cast<std::uint64_t>(sample),
                               static_cast<std::uint64_t>((r * m.w + c) * v + vv));
          const float x_t = std::cos(t) * x0 + std::sin(t) * z;
          dst[ch++] = x_t / sd;
        }
      }
      for (std::int64_t vv = 0; vv < v; ++vv) dst[ch++] = ex.prev.at3(r, c, vv);
      for (std::int64_t ff = 0; ff < f; ++ff) {
        dst[ch++] = ex.forcings.at3(r, c, ff);
      }
      // 2D sinusoidal positional field on every channel.
      const float pe = posenc_.at2(r, c);
      for (std::int64_t cc = 0; cc < m.in_channels; ++cc) dst[cc] += pe;
    }
    stats_.io_values += n * (2 * v + f);

    Tensor x = flight.input->embed.forward(xin, flight.ctx);  // [n, dim]
    flights_.push_back(std::move(flight));
    stats_.peak_live_clones = std::max(
        stats_.peak_live_clones, static_cast<std::int64_t>(flights_.size()));
    send_forward(x, cond, mb);
    return;
  }

  if (pp <= m.depth) {
    // Post the receives before cloning the stage so the upstream payload
    // lands while we do local work.
    std::vector<PendingMsg> pend = post_recv_forward(mb);
    const WindowLayout lay = layer_layout(stage_layer(pp));
    const std::int64_t n = lay.local_tokens(topo_.coords().wp);

    flight.block = *block_;
    nn::ParamList cp;
    flight.block->collect_params(cp);
    nn::zero_grads(cp);

    auto [x_flat, cond] = complete_recv_forward(pend, n);
    stats_.activation_floats = x_flat.numel();

    const std::int64_t nwin = lay.local_window_count(topo_.coords().wp);
    Tensor x = std::move(x_flat).reshaped({nwin, lay.sp_chunk(), m.dim});
    Communicator sp = topo_.sp_group();
    Tensor y = flight.block->forward(sp, x, cond, flight.ctx);
    flights_.push_back(std::move(flight));
    stats_.peak_live_clones = std::max(
        stats_.peak_live_clones, static_cast<std::int64_t>(flights_.size()));
    send_forward(y.reshaped({nwin * lay.sp_chunk(), m.dim}), cond, mb);
    return;
  }

  // Output stage: final norm + decode + loss.
  std::vector<PendingMsg> pend = post_recv_forward(mb);
  const WindowLayout lay = output_layout();
  const auto tokens = lay.tokens_of(topo_.coords().wp, topo_.coords().sp);
  const std::int64_t n = static_cast<std::int64_t>(tokens.size());

  flight.output = *output_;
  nn::ParamList cp;
  flight.output->final_norm.collect_params(cp);
  flight.output->head.collect_params(cp);
  nn::zero_grads(cp);

  auto [x, cond] = complete_recv_forward(pend, n);
  (void)cond;

  Tensor normed = flight.output->final_norm.forward(x, flight.ctx);
  Tensor pred = flight.output->head.forward(normed, flight.ctx);  // [n, V]

  // Objective residual per local token (regenerating the same t and z the
  // input stage used, via the counter RNG).
  const std::int64_t v = m.out_channels;
  const core::TrainExample ex = data(sample);
  stats_.io_values += n * 2 * v;
  float t = 0.0f;
  const float sd = cfg_.train.trigflow.sigma_d;
  if (cfg_.train.objective == core::Objective::kTrigFlow) {
    t = trigflow_.sample_time(rng_, static_cast<std::uint64_t>(sample));
  }
  const float inv_n =
      1.0f / static_cast<float>(m.h * m.w * v);  // per-sample mean
  Tensor grad({n, v});
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t r = tokens[static_cast<std::size_t>(i)].r;
    const std::int64_t c = tokens[static_cast<std::size_t>(i)].c;
    for (std::int64_t vv = 0; vv < v; ++vv) {
      const float x0 = ex.target.at3(r, c, vv) - ex.prev.at3(r, c, vv);
      float diff;
      float dscale;
      if (cfg_.train.objective == core::Objective::kTrigFlow) {
        const float z =
            sd * rng_.normal(rng_stream::kDiffusionNoise,
                             static_cast<std::uint64_t>(sample),
                             static_cast<std::uint64_t>((r * m.w + c) * v + vv));
        const float v_t = std::cos(t) * z - std::sin(t) * x0;
        diff = sd * pred.at2(i, vv) - v_t;
        dscale = sd;
      } else {
        diff = pred.at2(i, vv) - x0;
        dscale = 1.0f;
      }
      const float w = lat_weights_[r] * var_weights_[vv];
      loss += static_cast<double>(w) * diff * diff;
      grad.at2(i, vv) = 2.0f * w * dscale * diff * inv_n;
    }
  }
  flight.pred_grad = std::move(grad);
  loss_accum_ += static_cast<float>(loss) * inv_n;
  flights_.push_back(std::move(flight));
  stats_.peak_live_clones = std::max(
      stats_.peak_live_clones, static_cast<std::int64_t>(flights_.size()));
}

void SwipeEngine::backward_microbatch(int mb) {
  const core::ModelConfig& m = cfg_.model;
  const int pp = topo_.coords().pp;
  if (flights_.empty()) throw std::logic_error("backward without forward");
  Flight flight = std::move(flights_.front());
  flights_.pop_front();

  auto accumulate = [&](nn::ParamList& clone_params) {
    if (clone_params.size() != params_.size()) {
      throw std::logic_error("clone/master param mismatch");
    }
    for (std::size_t i = 0; i < params_.size(); ++i) {
      add_(params_[i]->grad, clone_params[i]->grad);
    }
  };

  if (pp == cfg_.grid.pp - 1) {
    Tensor dnormed =
        flight.output->head.backward(flight.pred_grad, flight.ctx);
    Tensor dx = flight.output->final_norm.backward(dnormed, flight.ctx);
    nn::ParamList cp;
    flight.output->final_norm.collect_params(cp);
    flight.output->head.collect_params(cp);
    accumulate(cp);
    maybe_launch_grad_buckets();
    send_backward(dx, Tensor({1, m.cond_dim}), mb);
    return;
  }

  if (pp >= 1) {
    std::vector<PendingMsg> pend = post_recv_backward(mb);
    const WindowLayout lay = layer_layout(stage_layer(pp));
    const std::int64_t n = lay.local_tokens(topo_.coords().wp);
    auto [dy_flat, dcond] = complete_recv_backward(pend, n);
    const std::int64_t nwin = lay.local_window_count(topo_.coords().wp);
    Tensor dy = std::move(dy_flat).reshaped({nwin, lay.sp_chunk(), m.dim});
    Communicator sp = topo_.sp_group();
    Tensor dx = flight.block->backward(sp, dy, dcond, flight.ctx);
    nn::ParamList cp;
    flight.block->collect_params(cp);
    accumulate(cp);
    maybe_launch_grad_buckets();
    send_backward(dx.reshaped({nwin * lay.sp_chunk(), m.dim}), dcond, mb);
    return;
  }

  // Input stage.
  std::vector<PendingMsg> pend = post_recv_backward(mb);
  const WindowLayout lay = layer_layout(0);
  const std::int64_t n = lay.local_tokens(topo_.coords().wp);
  auto [dtokens, dcond] = complete_recv_backward(pend, n);
  flight.input->embed.backward(dtokens, flight.ctx);
  flight.input->time_embed.backward(dcond, flight.ctx);
  nn::ParamList cp;
  flight.input->embed.collect_params(cp);
  flight.input->time_embed.collect_params(cp);
  accumulate(cp);
  maybe_launch_grad_buckets();
}

void SwipeEngine::maybe_launch_grad_buckets() {
  if (++backwards_done_ != cfg_.microbatches) return;
  // Last microbatch of this stage's backward: every bucket's gradients are
  // final, so launch their ring allreduces now. The eager first hop in the
  // RingAllreduce constructor means the reduction makes progress while
  // upstream stages are still running their backwards.
  for (GradBucket& b : buckets_) {
    std::size_t off = 0;
    for (std::size_t i = b.begin; i < b.end; ++i) {
      const nn::Param* p = params_[i];
      std::copy(p->grad.flat().begin(), p->grad.flat().end(),
                b.buf.begin() + static_cast<std::ptrdiff_t>(off));
      off += static_cast<std::size_t>(p->numel());
    }
    pending_reductions_.emplace_back(replicas_, std::span<float>(b.buf));
  }
}

float SwipeEngine::train_step(const DataFn& data, std::int64_t images_seen) {
  nn::zero_grads(params_);
  loss_accum_ = 0.0f;
  flights_.clear();
  backwards_done_ = 0;
  pending_reductions_.clear();

  const auto schedule = one_f_one_b_schedule(
      cfg_.grid.pp, topo_.coords().pp, cfg_.microbatches);
  for (const PipelineOp& op : schedule) {
    if (kTraceEnabled) {
      fprintf(stderr, "[rank %d pp %d] %s mb %d begin\n", topo_.rank(),
              topo_.coords().pp,
              op.kind == PipelineOp::Kind::kForward ? "F" : "B",
              op.microbatch);
    }
    if (op.kind == PipelineOp::Kind::kForward) {
      forward_microbatch(op.microbatch, data, images_seen);
    } else {
      backward_microbatch(op.microbatch);
    }
    if (kTraceEnabled) {
      fprintf(stderr, "[rank %d pp %d] %s mb %d end\n", topo_.rank(),
              topo_.coords().pp,
              op.kind == PipelineOp::Kind::kForward ? "F" : "B",
              op.microbatch);
    }
  }
  if (kTraceEnabled) {
    fprintf(stderr, "[rank %d] schedule done\n", topo_.rank());
  }

  // Drain the bucketed gradient allreduces launched during backward, then
  // hand the summed gradients (averaged over DP * microbatches samples) to
  // the ZeRO-1 sharded update + allgather-v.
  const float lr = cfg_.train.schedule.at(images_seen);
  const float scale =
      1.0f / static_cast<float>(cfg_.grid.dp * cfg_.microbatches);
  for (RingAllreduce& ar : pending_reductions_) ar.finish();
  pending_reductions_.clear();
  // Only this rank's ZeRO-1 shard consumes the summed gradients (the
  // sharded update reads nothing else, and train_step re-zeroes all grads
  // on entry), so the scaled write-back skips every other parameter.
  const auto [shard_begin, shard_end] = Zero1Optimizer::shard_range(
      params_.size(), replicas_.size(), replicas_.rank());
  for (const GradBucket& b : buckets_) {
    std::size_t off = 0;
    for (std::size_t i = b.begin; i < b.end; ++i) {
      nn::Param* p = params_[i];
      if (i >= shard_begin && i < shard_end) {
        for (std::int64_t j = 0; j < p->numel(); ++j) {
          p->grad[j] = b.buf[off + static_cast<std::size_t>(j)] * scale;
        }
      }
      off += static_cast<std::size_t>(p->numel());
    }
  }
  opt_->step_reduced(replicas_, lr);

  // Aggregate the loss (only output-stage ranks hold partials).
  std::vector<float> loss_buf = {loss_accum_};
  everyone_.allreduce_sum(loss_buf);
  return loss_buf[0] / static_cast<float>(cfg_.grid.dp * cfg_.microbatches);
}

// ----------------------------------------------------------- checkpoints

std::string SwipeEngine::checkpoint_path(const std::string& dir, int rank) {
  return dir + "/rank" + std::to_string(rank) + ".ckpt";
}

void SwipeEngine::save_checkpoint(const std::string& dir,
                                  std::int64_t images_seen) const {
  std::filesystem::create_directories(dir);
  Serializer s;
  s.write_i64(images_seen);
  s.write_u64(static_cast<std::uint64_t>(topo_.rank()));
  const std::vector<ConfigField> fields = config_fingerprint(cfg_);
  s.write_u64(fields.size());
  for (const ConfigField& f : fields) s.write_i64(f.value);
  s.write_u64(params_.size());
  for (const nn::Param* p : params_) {
    s.write_floats(p->value.flat());
  }
  opt_->checkpoint_shard(replicas_.size(), replicas_.rank(), s);
  write_checkpoint_file(checkpoint_path(dir, topo_.rank()),
                        std::span<const std::uint8_t>(s.bytes()));
}

std::int64_t SwipeEngine::load_checkpoint(const std::string& dir) {
  const std::vector<std::uint8_t> payload =
      read_checkpoint_file(checkpoint_path(dir, topo_.rank()));
  Deserializer d{std::span<const std::uint8_t>(payload)};
  const std::int64_t images_seen = d.read_i64();
  if (d.read_u64() != static_cast<std::uint64_t>(topo_.rank())) {
    throw CheckpointError("checkpoint belongs to a different rank");
  }
  const std::vector<ConfigField> fields = config_fingerprint(cfg_);
  if (d.read_u64() != fields.size()) {
    throw CheckpointError(
        "checkpoint config fingerprint length mismatch (incompatible "
        "checkpoint layout)");
  }
  for (const ConfigField& f : fields) {
    const std::int64_t stored = d.read_i64();
    if (stored != f.value) {
      throw CheckpointError(
          "checkpoint config mismatch: " + std::string(f.name) + " stored " +
          std::to_string(stored) + ", current " + std::to_string(f.value) +
          " — refusing to load a differently-shaped model");
    }
  }
  if (d.read_u64() != params_.size()) {
    throw CheckpointError(
        "checkpoint stage parameter count mismatch (different topology?)");
  }
  for (nn::Param* p : params_) {
    try {
      d.read_floats_into(p->value.flat());
    } catch (const CheckpointError& e) {
      throw CheckpointError("checkpoint param '" + p->name +
                            "': " + e.what());
    }
  }
  opt_->restore_shard(replicas_.size(), replicas_.rank(), d);
  if (!d.exhausted()) {
    throw CheckpointError("trailing bytes in checkpoint payload");
  }
  return images_seen;
}

}  // namespace aeris::swipe
