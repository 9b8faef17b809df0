#include "aeris/serving/registry.hpp"

#include <cstdlib>
#include <stdexcept>

namespace aeris::serving {

std::unique_ptr<ModelRegistry> make_default_registry(
    const core::ParallelEnsembleEngine& engine) {
  auto r = std::make_unique<ModelRegistry>();
  r->add("default", engine);
  return r;
}

std::int64_t ModelRegistry::add(const std::string& name,
                                const core::ParallelEnsembleEngine& engine,
                                int skill_tier) {
  if (name.empty()) {
    throw std::invalid_argument("ModelRegistry: variant name must be non-empty");
  }
  if (find(name) != nullptr) {
    throw std::invalid_argument("ModelRegistry: duplicate variant '" + name +
                                "'");
  }
  ModelVariant v;
  v.name = name;
  v.engine = &engine;
  v.skill_tier = skill_tier;
  variants_.push_back(std::move(v));
  return static_cast<std::int64_t>(variants_.size()) - 1;
}

void ModelRegistry::set_fallback(const std::string& from,
                                 const std::string& to) {
  const std::int64_t fi = resolve(from, QualityClass::kAny);
  const std::int64_t ti = resolve(to, QualityClass::kAny);
  if (fi < 0 || from.empty()) {
    throw std::invalid_argument("ModelRegistry: unknown fallback source '" +
                                from + "'");
  }
  if (ti < 0 || to.empty()) {
    throw std::invalid_argument("ModelRegistry: unknown fallback target '" +
                                to + "'");
  }
  if (fi == ti) {
    throw std::invalid_argument(
        "ModelRegistry: a variant cannot fall back to itself ('" + from +
        "')");
  }
  const core::ModelConfig& fc = variants_[static_cast<std::size_t>(fi)]
                                    .engine->model()
                                    .config();
  const core::ModelConfig& tc = variants_[static_cast<std::size_t>(ti)]
                                    .engine->model()
                                    .config();
  if (fc.out_channels != tc.out_channels ||
      fc.in_channels != tc.in_channels) {
    throw std::invalid_argument(
        "ModelRegistry: fallback '" + from + "' -> '" + to +
        "' must serve the same variable set (out_channels/in_channels)");
  }
  if (fc.h % tc.h != 0 || fc.w % tc.w != 0) {
    throw std::invalid_argument(
        "ModelRegistry: fallback '" + from + "' -> '" + to +
        "' needs the coarse grid to divide the fine grid evenly");
  }
  variants_[static_cast<std::size_t>(fi)].fallback = ti;
}

void ModelRegistry::set_default(const std::string& name) {
  const std::int64_t i = resolve(name, QualityClass::kAny);
  if (i < 0 || name.empty()) {
    throw std::invalid_argument("ModelRegistry: unknown default variant '" +
                                name + "'");
  }
  default_ = i;
}

void ModelRegistry::overlay_env() {
  const char* model = std::getenv("AERIS_SERVE_MODEL");
  if (model != nullptr && *model != '\0') set_default(model);
  const char* fb = std::getenv("AERIS_SERVE_FALLBACK_MODEL");
  if (fb != nullptr && *fb != '\0') {
    set_fallback(variants_[static_cast<std::size_t>(default_)].name, fb);
  }
}

const ModelVariant& ModelRegistry::at(std::int64_t index) const {
  if (index < 0 || index >= size()) {
    throw std::out_of_range("ModelRegistry: variant index " +
                            std::to_string(index) + " out of range (size " +
                            std::to_string(size()) + ")");
  }
  return variants_[static_cast<std::size_t>(index)];
}

const ModelVariant* ModelRegistry::find(const std::string& name) const {
  for (const ModelVariant& v : variants_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

std::uint64_t ModelRegistry::fingerprint() const {
  // FNV-1a over the serving-visible shape of the registry. Field order is
  // part of the contract: changing it changes every fingerprint, which is
  // exactly the fail-loud behaviour a mixed-build fleet should have.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 0x100000001b3ull;
    }
  };
  const auto mix_str = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0xffull;  // terminator so {"ab","c"} != {"a","bc"}
    h *= 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(variants_.size()));
  mix(static_cast<std::uint64_t>(default_));
  for (const ModelVariant& v : variants_) {
    mix_str(v.name);
    mix(static_cast<std::uint64_t>(v.skill_tier));
    mix(static_cast<std::uint64_t>(v.fallback));
    const core::ModelConfig& c = v.engine->model().config();
    mix(static_cast<std::uint64_t>(c.h));
    mix(static_cast<std::uint64_t>(c.w));
    mix(static_cast<std::uint64_t>(c.out_channels));
    mix(static_cast<std::uint64_t>(c.in_channels));
    mix(static_cast<std::uint64_t>(v.engine->sampler_kind()));
    mix(static_cast<std::uint64_t>(v.engine->has_consistency() ? 1 : 0));
    mix(static_cast<std::uint64_t>(v.engine->solver_steps()));
  }
  return h == 0 ? 1 : h;  // 0 is the "compute locally" sentinel
}

std::int64_t ModelRegistry::resolve(const std::string& name,
                                    QualityClass quality) const {
  if (variants_.empty()) return -1;
  if (!name.empty()) {
    for (std::size_t i = 0; i < variants_.size(); ++i) {
      if (variants_[i].name == name) return static_cast<std::int64_t>(i);
    }
    return -1;
  }
  if (quality == QualityClass::kAny) return default_;
  std::int64_t best = 0;
  for (std::size_t i = 1; i < variants_.size(); ++i) {
    const int tier = variants_[i].skill_tier;
    const int best_tier = variants_[static_cast<std::size_t>(best)].skill_tier;
    const bool better = quality == QualityClass::kPreview ? tier < best_tier
                                                          : tier > best_tier;
    if (better) best = static_cast<std::int64_t>(i);
  }
  return best;
}

Tensor coarsen_mean(const Tensor& x, std::int64_t h, std::int64_t w) {
  if (x.ndim() != 3) {
    throw std::invalid_argument("coarsen_mean: expected [H, W, C]");
  }
  const std::int64_t fh = x.dim(0);
  const std::int64_t fw = x.dim(1);
  const std::int64_t c = x.dim(2);
  if (h <= 0 || w <= 0 || fh % h != 0 || fw % w != 0) {
    throw std::invalid_argument(
        "coarsen_mean: target grid must divide the source grid");
  }
  const std::int64_t rh = fh / h;
  const std::int64_t rw = fw / w;
  if (rh == 1 && rw == 1) return x;
  Tensor out({h, w, c});
  const float inv = 1.0f / static_cast<float>(rh * rw);
  for (std::int64_t r = 0; r < h; ++r) {
    for (std::int64_t q = 0; q < w; ++q) {
      float* o = out.data() + (r * w + q) * c;
      for (std::int64_t ch = 0; ch < c; ++ch) o[ch] = 0.0f;
      for (std::int64_t dr = 0; dr < rh; ++dr) {
        for (std::int64_t dq = 0; dq < rw; ++dq) {
          const float* p =
              x.data() + ((r * rh + dr) * fw + (q * rw + dq)) * c;
          for (std::int64_t ch = 0; ch < c; ++ch) o[ch] += p[ch];
        }
      }
      for (std::int64_t ch = 0; ch < c; ++ch) o[ch] *= inv;
    }
  }
  return out;
}

}  // namespace aeris::serving
