#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aeris/core/ensemble.hpp"
#include "aeris/serving/types.hpp"

namespace aeris::serving {

/// One named engine variant in a ModelRegistry: the engine (grid shape and
/// sampler capabilities live on it), a skill tier for quality-class
/// routing, and an optional cross-model degrade edge. Teacher->student
/// links ride on the engine itself (set_consistency), so a single variant
/// already serves both sampler families of a distilled pair.
struct ModelVariant {
  std::string name;
  const core::ParallelEnsembleEngine* engine = nullptr;
  /// Relative skill ordering for quality-class routing: higher tiers are
  /// more skillful (and slower). QualityClass::kPreview resolves to the
  /// lowest tier, kFullSkill to the highest; ties break toward the earlier
  /// registration.
  int skill_tier = 0;
  /// Registry index of the variant overload falls back to (the
  /// DegradePolicy zeroth rung); -1 when this variant never falls back.
  std::int64_t fallback = -1;
};

/// The model zoo behind one serving front-end: N named engine variants
/// with stable indices (the wire model-id lane), a default variant,
/// quality-class routing, and validated cross-model fallback edges.
///
/// A registry is mutated only while it is being assembled; freeze it
/// before handing it to a server — RequestLedger, the server workers and
/// the cluster ranks all read it lock-free.
class ModelRegistry {
 public:
  ModelRegistry() = default;

  /// Registers a variant; names must be unique and non-empty, the engine
  /// must outlive the registry. The first variant added is the default
  /// until set_default says otherwise. Returns the variant's stable index
  /// (the wire model-id).
  std::int64_t add(const std::string& name,
                   const core::ParallelEnsembleEngine& engine,
                   int skill_tier = 0);

  /// Declares the cross-model degrade edge `from` -> `to`. Validated at
  /// declaration: both variants exist, the edge is not a self-loop, the
  /// variable sets agree (same out_channels and in_channels, so the
  /// forcing channel count matches too), and `to`'s grid either equals
  /// `from`'s or divides it evenly in both extents (area-mean coarsening
  /// of the request's init/forcings is exact on integer factors).
  void set_fallback(const std::string& from, const std::string& to);

  void set_default(const std::string& name);

  /// Overlays the environment's model-routing knobs: AERIS_SERVE_MODEL
  /// names the default variant, AERIS_SERVE_FALLBACK_MODEL wires the
  /// (resulting) default variant's fallback edge. Unset/empty variables
  /// change nothing; unknown names throw (a typo'd deployment should fail
  /// loudly at startup, not silently serve the wrong model). Call while
  /// assembling the registry, before any server reads it.
  void overlay_env();

  std::int64_t size() const {
    return static_cast<std::int64_t>(variants_.size());
  }
  bool empty() const { return variants_.empty(); }

  /// The variant at a stable index; throws std::out_of_range beyond size()
  /// (a worker decoding a model-id lane from a newer front-end must fail
  /// typed, not read garbage).
  const ModelVariant& at(std::int64_t index) const;

  /// The named variant, or nullptr when unknown.
  const ModelVariant* find(const std::string& name) const;

  /// Routing: a non-empty name must match a registered variant; an empty
  /// name resolves the quality class (kAny = default variant, kPreview =
  /// lowest skill tier, kFullSkill = highest). Returns the variant's index
  /// or -1 for an unknown name / empty registry.
  std::int64_t resolve(const std::string& name, QualityClass quality) const;

  std::int64_t default_index() const { return default_; }

  /// Deterministic digest of the frozen registry's serving-visible shape:
  /// variant names, stable indices (by construction order), skill tiers,
  /// fallback edges, default variant, and each engine's grid/channel
  /// geometry and sampler capabilities. Two replicas that would route and
  /// serve identically produce the same fingerprint; the elastic cluster
  /// validates a joiner's announced fingerprint against the frozen
  /// registry before the rank is ever leased work. Never returns 0 (0 is
  /// the join protocol's "compute locally" sentinel).
  std::uint64_t fingerprint() const;

 private:
  std::vector<ModelVariant> variants_;
  std::int64_t default_ = 0;
};

/// A one-variant registry named "default" around `engine`: what the
/// single-engine server constructors route through.
std::unique_ptr<ModelRegistry> make_default_registry(
    const core::ParallelEnsembleEngine& engine);

/// Area-mean pooling [H, W, C] -> [h, w, C] (h | H, w | W): the state and
/// forcing adapter a cross-grid fallback edge applies when re-routing a
/// fine-grid request to a coarse variant.
Tensor coarsen_mean(const Tensor& x, std::int64_t h, std::int64_t w);

}  // namespace aeris::serving
