#pragma once

#include "common.hpp"

namespace perfbench {

/// ForecastServer (workers=2, batch=4) under the open-loop schedule.
Outcome run_serve_open(const Args& args);
/// The same schedule and model through ClusterForecastServer (ranks=3).
Outcome run_serve_cluster(const Args& args);
/// Closed-loop ParallelEnsembleEngine::ensemble_rollout on the larger model.
Outcome run_ensemble_offline(const Args& args);

}  // namespace perfbench
