#pragma once

// Seeded open-loop load generator. The window is cut into strata of 10
// requests (5/7 s at 14 req/s). Within a stratum, Philox places the 10
// arrivals i.i.d. uniform and sorts them, which is exactly a Poisson
// process conditioned on 10 arrivals there, and shuffles an exact member
// multiset {1, 1, 2, 2, 2, 2, 2, 2, 4, 4}. Fixing the count and the mix per
// stratum removes the seed-to-seed swing in offered work and in bursts
// longer than a stratum; the arrival pattern inside each stratum, and with
// it the queueing, still varies by seed.

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "aeris/serving/types.hpp"
#include "common.hpp"

namespace perfbench {

struct Planned {
  double due_ms = 0.0;  ///< offset from the schedule's start
  std::int64_t members = 1;
  std::int64_t steps = 2;
  std::uint64_t seed = 0;  ///< the request's ensemble seed
  int entry = 0;           ///< Inputs pool entry (init + forcings)
};

std::vector<Planned> make_schedule(std::uint64_t seed, double rate_per_s,
                                   double seconds, std::int64_t steps);

/// One request as the generator saw it. Times are ms from the schedule's
/// start; latency is done - due (open loop: a stall that delays later
/// sends is charged to them).
struct Served {
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  double queue_wait_ms = 0.0;  ///< ForecastResult::queue_wait_ms
  double total_ms = 0.0;       ///< ForecastResult::total_ms
  bool ok = false;
  std::int64_t member_steps = 0;
};

struct LoadRun {
  std::vector<Served> served;  ///< schedule order
  /// Results kept for the correctness gate, by schedule index.
  std::vector<std::pair<std::size_t, aeris::serving::ForecastResult>> kept;
  int inflight_max = 0;
  double window_ms = 0.0;  ///< schedule start to last completion
};

using ForecastCall = std::function<aeris::serving::ForecastResult(
    const aeris::serving::ForecastRequest&)>;

/// Plays `plan` against `call` from `threads` generator threads. Each
/// thread claims the next due request, sleeps until it is due and blocks
/// in the call, so at most `threads` requests are in flight; a request
/// claimed after its due time is sent late and the lateness is recorded.
/// Indices in `keep` retain their full results.
LoadRun run_open_loop(const std::vector<Planned>& plan, const Inputs& inputs,
                      const ForecastCall& call, int threads,
                      const std::set<std::size_t>& keep);

}  // namespace perfbench
