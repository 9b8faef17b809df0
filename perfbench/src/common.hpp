#pragma once

// Shared pieces of the end-to-end benchmark: clocks, order statistics,
// the metric list every workload fills in, and the model/input set-up the
// workloads and the layer replays agree on.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aeris/core/forecaster.hpp"
#include "aeris/core/model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Latency quantile of a timed pass that a slow stretch of a shared host
/// cannot dominate: the pass [0, span_ms) is cut into `windows` equal
/// windows by each sample's time `at_ms`, the nearest-rank quantile q is
/// taken within each non-empty window, and the median of those is
/// returned (the mean of the middle two for an even count).
double windowed_quantile(const std::vector<double>& v,
                         const std::vector<double>& at_ms, double span_ms,
                         double q, int windows);

/// While alive, keeps `n` threads spinning at SCHED_IDLE priority, so that
/// no vCPU halts between requests: any other runnable thread preempts
/// them at once, but a halted vCPU of a shared VM wakes after a delay
/// that swings with the host's load. Stops and joins them on destruction.
class IdleSpinners {
 public:
  explicit IdleSpinners(int n);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Peak resident set size of this process (getrusage ru_maxrss), in MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the fields of the result line.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
};

/// The toy serving model: 16x16 grid, dim 32, depth 2, 8x8 windows.
aeris::core::ModelConfig toy_config();
/// The kernel-bound offline model: 16x32 grid, dim 128, ffn 256, depth 2.
aeris::core::ModelConfig offline_config();
/// 4-step TrigFlow solver with churn 0.3 (every workload).
aeris::core::TrigSamplerConfig sampler_config();

inline constexpr std::int64_t kStateChannels = 5;    ///< V
inline constexpr std::int64_t kForcingChannels = 2;  ///< F
inline constexpr int kInputPool = 4;  ///< initial states per run

/// Builds a model with the library's initialisation plus a seeded
/// N(0, 0.05^2) perturbation of every parameter, so the zero-initialised
/// AdaLN heads and decode head carry signal and the bitwise gate compares
/// non-trivial outputs.
std::unique_ptr<aeris::core::AerisModel> make_model(
    const aeris::core::ModelConfig& cfg, std::uint64_t seed);

/// Seeded initial states and forcing fields at one grid size. Forcings
/// are a pure function of (pool entry, step), so ForcingFns built from
/// the pool are thread-safe.
struct Inputs {
  std::vector<aeris::Tensor> inits;     ///< [H, W, V]
  std::vector<aeris::Tensor> forcings;  ///< [H, W, F]

  Inputs(const aeris::core::ModelConfig& cfg, std::uint64_t seed);
  aeris::core::ForcingFn forcing_fn(int entry) const;
};

}  // namespace perfbench
