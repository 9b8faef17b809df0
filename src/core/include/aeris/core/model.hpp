#pragma once

#include <memory>
#include <vector>

#include "aeris/core/swin_block.hpp"
#include "aeris/core/window.hpp"
#include "aeris/nn/embedding.hpp"
#include "aeris/nn/linear.hpp"

namespace aeris::core {

/// Architecture hyper-parameters of an AERIS network (paper Table II uses
/// Dim/Heads/FFN; the grid and window size come from the data resolution —
/// 720x1440 with 30x30 or 60x60 windows at full scale).
struct ModelConfig {
  std::int64_t h = 32;            ///< token rows (pixel rows; patch size 1x1)
  std::int64_t w = 64;            ///< token cols
  std::int64_t in_channels = 8;   ///< x_t + initial condition + forcings
  std::int64_t out_channels = 4;  ///< predicted variables
  std::int64_t dim = 64;          ///< hidden dimension
  std::int64_t depth = 4;         ///< number of Swin layers
  std::int64_t heads = 4;
  std::int64_t ffn_hidden = 128;
  std::int64_t win_h = 8;
  std::int64_t win_w = 8;
  std::int64_t cond_dim = 64;        ///< time-conditioning width
  std::int64_t time_features = 32;   ///< sinusoidal feature count

  std::int64_t tokens_per_window() const { return win_h * win_w; }
  std::int64_t windows() const { return window_count(h, w, win_h, win_w); }
  /// Shift applied by layer `l` (alternating 0 / win/2, paper Fig. 2a).
  std::int64_t shift_for_layer(std::int64_t l) const {
    return (l % 2 == 1) ? win_h / 2 : 0;
  }
};

/// The AERIS backbone: pixel-level embed -> N Swin blocks with alternating
/// shifted windows and AdaLN time conditioning -> norm -> pixel decode
/// (paper Fig. 3). Works on batches of token maps.
///
/// This class is the *single-rank reference implementation*; the SWiPe
/// runtime executes the same blocks sharded across window / sequence /
/// pipeline ranks and is tested for equivalence against this path.
///
/// Weight sharing: modules live behind shared_ptr, so a *shared-backbone
/// variant* (the second constructor) aliases another model's embed / time
/// trunk / blocks / final norm — the same layer objects, hence the same
/// LayerIds and parameter storage — while owning only its decode head.
/// Because no layer reads the grid extent (blocks operate per window), the
/// variant may run a different H x W than its donor; every
/// parameter-bearing dimension must match. Mutable params() then covers
/// the *owned* head alone, so optimizers/EMA over a shared variant train
/// the distilled head and never perturb the donor (backward does still
/// accumulate into the shared modules' grad tensors — harmless for
/// inference, which never reads grads, but don't run a shared variant's
/// backward concurrently with the donor's own training step).
class AerisModel {
 public:
  explicit AerisModel(const ModelConfig& cfg, std::uint64_t seed = 0);

  /// Shared-backbone variant: shares every module of `backbone` except the
  /// decode head (fresh Param storage; initialized as a copy of the
  /// donor's head when out_channels agree, zero otherwise). Throws when a
  /// parameter-bearing dimension differs from the donor's config.
  AerisModel(const ModelConfig& cfg, const AerisModel& backbone);

  /// Copies would silently alias every module (shared_ptr members);
  /// moves are safe — params_ points into the heap-allocated layers.
  AerisModel(const AerisModel&) = delete;
  AerisModel& operator=(const AerisModel&) = delete;
  AerisModel(AerisModel&&) = default;
  AerisModel& operator=(AerisModel&&) = default;

  /// x: [B, H, W, Cin], t: [B] diffusion times. Returns [B, H, W, Cout].
  /// Forward is const: all per-call state lives in `ctx`, so any number of
  /// threads may drive one shared model concurrently, each with its own
  /// ctx.
  Tensor forward(const Tensor& x, const Tensor& t, nn::FwdCtx& ctx) const;

  /// Inference convenience: runs with a throwaway inference-mode ctx
  /// (streaming attention, nothing retained).
  Tensor forward(const Tensor& x, const Tensor& t) const;

  /// dy: [B, H, W, Cout]. Returns dL/dx and accumulates parameter grads,
  /// consuming the activations deposited in `ctx` by the matching forward.
  Tensor backward(const Tensor& dy, nn::FwdCtx& ctx);

  /// Mutable parameters: everything for a primary model, the owned head
  /// alone for a shared-backbone variant (so training/EMA state over a
  /// variant cannot touch the donor's weights).
  const nn::ParamList& params() { return params_; }
  /// Read-only parameter view for const (shared, concurrent) models;
  /// always the full list, shared modules included.
  const nn::ConstParamList& params() const { return const_params_; }
  /// True for a shared-backbone variant (second constructor).
  bool shares_backbone() const { return shares_backbone_; }
  const ModelConfig& config() const { return cfg_; }
  std::int64_t param_count() const;

  /// Analytic parameter count for a config (validated in tests against a
  /// constructed model; used by the perf model for Table II).
  static std::int64_t analytic_param_count(const ModelConfig& cfg);

  /// Blocks are exposed so the pipeline-parallel runtime can host one
  /// stage's worth of layers without duplicating construction logic.
  SwinBlock& block(std::int64_t i) { return *blocks_[static_cast<std::size_t>(i)]; }
  const SwinBlock& block(std::int64_t i) const {
    return *blocks_[static_cast<std::size_t>(i)];
  }
  nn::TimeEmbedding& time_embedding() { return *time_embed_; }

 private:
  ModelConfig cfg_;
  Tensor posenc_;  // [H, W]
  std::shared_ptr<nn::Linear> embed_;
  std::shared_ptr<nn::TimeEmbedding> time_embed_;
  std::vector<std::shared_ptr<SwinBlock>> blocks_;
  std::shared_ptr<nn::RMSNorm> final_norm_;
  std::shared_ptr<nn::Linear> head_;
  bool shares_backbone_ = false;
  nn::ParamList params_;
  nn::ConstParamList const_params_;
  nn::LayerId id_;
};

}  // namespace aeris::core
