#pragma once

// Layer replays for the traced run: each layer the workload exercised is
// called again in isolation, at the workload's model shape and pack size,
// on the benchmark thread with inline kernels (as the serving workers and
// ensemble threads run them). The nn layers are reconciled against the
// whole AerisModel forward, and their achieved FLOP/s against the
// analytic counts in src/perf.

#include <cstdint>

#include "aeris/core/ensemble.hpp"
#include "common.hpp"

namespace perfbench {

struct ReplayInput {
  const aeris::core::AerisModel& model;
  const aeris::core::ParallelEnsembleEngine& engine;
  const Inputs& inputs;
  /// Members per stacked model call the workload actually ran.
  std::int64_t pack_size = 1;
};

/// Appends the core.*, nn.*, perf.*, tensor.* and swipe.* per-layer
/// metrics to `out`.
void add_replay_metrics(const ReplayInput& in, Outcome& out);

}  // namespace perfbench
