#include "common.hpp"

#include <algorithm>
#include <cmath>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include "aeris/tensor/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

double windowed_quantile(const std::vector<double>& v,
                         const std::vector<double>& at_ms, double span_ms,
                         double q, int windows) {
  std::vector<std::vector<double>> win(static_cast<std::size_t>(windows));
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double k = std::floor(at_ms[i] / span_ms * windows);
    win[static_cast<std::size_t>(std::clamp(k, 0.0, windows - 1.0))]
        .push_back(v[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : win) {
    if (!w.empty()) per_window.push_back(quantile(std::move(w), q));
  }
  if (per_window.empty()) return 0.0;
  std::sort(per_window.begin(), per_window.end());
  const std::size_t n = per_window.size();
  return 0.5 * (per_window[(n - 1) / 2] + per_window[n / 2]);
}

IdleSpinners::IdleSpinners(int n) {
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

aeris::core::ModelConfig toy_config() {
  aeris::core::ModelConfig mc;
  mc.h = 16;
  mc.w = 16;
  mc.in_channels = 2 * kStateChannels + kForcingChannels;
  mc.out_channels = kStateChannels;
  mc.dim = 32;
  mc.depth = 2;
  mc.heads = 4;
  mc.ffn_hidden = 64;
  mc.win_h = 8;
  mc.win_w = 8;
  mc.cond_dim = 32;
  return mc;
}

aeris::core::ModelConfig offline_config() {
  aeris::core::ModelConfig mc = toy_config();
  mc.h = 16;
  mc.w = 32;
  mc.dim = 128;
  mc.ffn_hidden = 256;
  mc.cond_dim = 64;
  return mc;
}

aeris::core::TrigSamplerConfig sampler_config() {
  aeris::core::TrigSamplerConfig sc;
  sc.steps = 4;
  sc.churn = 0.3f;
  return sc;
}

std::unique_ptr<aeris::core::AerisModel> make_model(
    const aeris::core::ModelConfig& cfg, std::uint64_t seed) {
  auto model = std::make_unique<aeris::core::AerisModel>(cfg, seed);
  const aeris::Philox rng(seed ^ 0xA5A5A5A5ull);
  std::uint64_t stream = 100;
  for (aeris::nn::Param* p : model->params()) {
    aeris::Tensor noise(p->value.shape());
    rng.fill_normal(noise, stream++, 0);
    float* v = p->value.data();
    for (std::int64_t i = 0; i < noise.numel(); ++i) v[i] += 0.05f * noise[i];
  }
  return model;
}

Inputs::Inputs(const aeris::core::ModelConfig& cfg, std::uint64_t seed) {
  const aeris::Philox rng(seed);
  for (int i = 0; i < kInputPool; ++i) {
    aeris::Tensor init({cfg.h, cfg.w, kStateChannels});
    rng.fill_normal(init, 11, static_cast<std::uint64_t>(i));
    inits.push_back(std::move(init));
    aeris::Tensor forcing({cfg.h, cfg.w, kForcingChannels});
    rng.fill_normal(forcing, 12, static_cast<std::uint64_t>(i));
    forcings.push_back(std::move(forcing));
  }
}

aeris::core::ForcingFn Inputs::forcing_fn(int entry) const {
  const std::vector<aeris::Tensor>* pool = &forcings;
  return [pool, entry](std::int64_t step) {
    return (*pool)[static_cast<std::size_t>(entry + step) % pool->size()];
  };
}

}  // namespace perfbench
