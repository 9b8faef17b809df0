#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "aeris/serving/cluster.hpp"
#include "aeris/serving/server.hpp"
#include "aeris/tensor/rng.hpp"
#include "loadgen.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using aeris::Tensor;
namespace core = aeris::core;
namespace serving = aeris::serving;

constexpr double kRatePerS = 14.0;     // offered load of the serve_* schedule
constexpr std::int64_t kSteps = 2;     // forecast steps per served request
constexpr std::int64_t kServeBatch = 4;  // max members per pack (serve_*)
constexpr double kWarmupS = 2.0;       // untimed open-loop pass before timing
constexpr int kWindows = 10;           // latency quantiles: median of windows
constexpr int kGenThreads = 4;         // generator threads (<= nproc)
constexpr int kSetups = 9;             // set-ups timed per run (median)
constexpr int kGateSamples = 8;        // served requests re-checked bitwise
constexpr double kServeSloMs = 250.0;  // latency limit per served request
constexpr double kOfflineSloMs = 500.0;  // latency limit per rollout
constexpr std::int64_t kOfflineMembers = 4;
constexpr std::uint64_t kWeightSeed = 1;
// Ops a timed pass must hold, so that at least 10 samples lie beyond p90.
// An offline pass runs past its seconds until it has them, up to
// kMaxPassS; a pass that still falls short fails the run.
constexpr std::size_t kMinOps = 100;
constexpr double kMaxPassS = 60.0;

void require_ops(std::size_t ops, double seconds, const char* what) {
  if (ops < kMinOps) {
    throw std::runtime_error(
        std::string(what) + ": only " + std::to_string(ops) + " ops in " +
        std::to_string(seconds) + " s; a timed pass needs " +
        std::to_string(kMinOps));
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

bool same_trajectories(const std::vector<std::vector<Tensor>>& got,
                       const std::vector<std::vector<Tensor>>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t m = 0; m < got.size(); ++m) {
    if (got[m].size() != want[m].size()) return false;
    for (std::size_t s = 0; s < got[m].size(); ++s) {
      if (!same_bits(got[m][s], want[m][s])) return false;
    }
  }
  return true;
}

/// Builds kSetups times and keeps the last build; `setup_s` is the median.
/// Each earlier build is torn down (in its members' reverse order) before
/// the next one starts, outside the timed interval.
template <class Build>
auto timed_setups(Build&& build, double& setup_s) {
  std::vector<double> secs;
  std::optional<decltype(build())> kept;
  for (int k = 0; k < kSetups; ++k) {
    kept.reset();
    const Clock::time_point a = Clock::now();
    kept.emplace(build());
    secs.push_back(1e-3 * ms_between(a, Clock::now()));
  }
  setup_s = median(std::move(secs));
  return std::move(*kept);
}

// ---------------------------------------------------------------- serving

/// Members are declared so that the server is destroyed before the engine
/// and the engine before the model.
struct ServeStack {
  std::unique_ptr<core::AerisModel> model;
  std::unique_ptr<core::ParallelEnsembleEngine> engine;
  std::unique_ptr<serving::ForecastServer> local;
  std::unique_ptr<serving::ClusterForecastServer> cluster;

  serving::ForecastResult forecast(const serving::ForecastRequest& r) {
    return local ? local->forecast(r) : cluster->forecast(r);
  }
  serving::ServerStats stats() const {
    return local ? local->stats() : cluster->stats();
  }
};

ServeStack build_serve(bool use_cluster, const Inputs& inputs) {
  ServeStack s;
  s.model = make_model(toy_config(), kWeightSeed);
  s.engine = std::make_unique<core::ParallelEnsembleEngine>(
      *s.model, core::TrigFlowConfig{}, sampler_config(), 7);
  if (use_cluster) {
    serving::ClusterOptions co;
    co.ranks = 3;  // front-end + 2 worker ranks = 2 compute threads
    co.serve.batch = kServeBatch;
    s.cluster = std::make_unique<serving::ClusterForecastServer>(*s.engine, co);
  } else {
    serving::ServerOptions so;
    so.workers = 2;  // 2 compute threads, kernels inline
    so.batch = kServeBatch;
    s.local = std::make_unique<serving::ForecastServer>(*s.engine, so);
  }
  // Warm-up at the largest request of the mix, so that lazy set-up (thread
  // start, scratch arenas grown to a full pack) is paid here and not in
  // the timed window.
  serving::ForecastRequest req;
  req.init = inputs.inits[0];
  req.forcings_at = inputs.forcing_fn(0);
  req.members = 4;
  req.steps = kSteps;
  req.seed = 1;
  const serving::ForecastResult r = s.forecast(req);
  if (!r.ok()) {
    throw std::runtime_error("warm-up request failed: " + r.error_message);
  }
  return s;
}

/// Recomputes each kept request with the serial DiffusionForecaster and
/// returns how many served trajectories differ in any bit. Requests that
/// did not finish kOk are already counted as failed.
std::int64_t gate_serve(const ServeStack& s, const std::vector<Planned>& plan,
                        const Inputs& inputs, const LoadRun& run) {
  std::int64_t mismatches = 0;
  for (const auto& [i, result] : run.kept) {
    if (!result.ok()) continue;
    const Planned& p = plan[i];
    const core::DiffusionForecaster ref(*s.model, core::TrigFlowConfig{},
                                        sampler_config(), p.seed);
    const auto want = ref.ensemble_rollout(
        inputs.inits[static_cast<std::size_t>(p.entry)],
        inputs.forcing_fn(p.entry), p.steps, p.members);
    if (!same_trajectories(result.trajectories, want)) {
      std::fprintf(stderr, "gate: request %zu differs from the serial "
                           "forecaster\n", i);
      ++mismatches;
    }
  }
  return mismatches;
}

std::set<std::size_t> gate_sample(std::uint64_t seed, std::size_t n) {
  const aeris::Philox rng(seed);
  std::set<std::size_t> keep;
  for (std::uint64_t k = 0; keep.size() < std::min<std::size_t>(kGateSamples, n);
       ++k) {
    keep.insert(static_cast<std::size_t>(rng.uniform(24, 0, k) * n) % n);
  }
  return keep;
}

std::vector<double> latencies(const LoadRun& run) {
  std::vector<double> v;
  for (const Served& s : run.served) {
    if (s.ok) v.push_back(s.done_ms - s.due_ms);
  }
  return v;
}

/// Due times of the requests latencies() keeps, in the same order.
std::vector<double> due_times(const LoadRun& run) {
  std::vector<double> v;
  for (const Served& s : run.served) {
    if (s.ok) v.push_back(s.due_ms);
  }
  return v;
}

/// `sent` ops of the timed pass, `slo_met` of them within the limit; the
/// ok share counts every op of the run (warm-up and gate included).
void add_end_to_end(Outcome& out, double p50_ms, double p90_ms,
                    std::size_t sent, std::int64_t slo_met,
                    double member_steps_per_s, double setup_s) {
  out.add("latency_p50_ms", p50_ms, "ms");
  out.add("latency_p90_ms", p90_ms, "ms");
  out.add("member_steps_per_s", member_steps_per_s, "1/s");
  out.add("slo_met_share",
          static_cast<double>(slo_met) / static_cast<double>(sent), "share");
  const double n = static_cast<double>(out.attempted);
  out.add("ok_share", static_cast<double>(out.attempted - out.failed) / n,
          "share");
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

void account(Outcome& out, const LoadRun& run) {
  for (const Served& s : run.served) {
    ++out.attempted;
    if (!s.ok) ++out.failed;
  }
}

Outcome run_serve(const Args& args, bool use_cluster) {
  Outcome out;
  const Inputs inputs(toy_config(), args.seed);
  double setup_s = 0.0;
  ServeStack stack = timed_setups(
      [&] { return build_serve(use_cluster, inputs); }, setup_s);

  // The traced run splits its time between an untraced and a traced pass
  // over the same schedule; their latency difference is the overhead.
  // One extra half-second stratum of margin keeps the rounded schedule
  // at kMinOps requests or more.
  const double pass_s =
      std::max(args.trace ? args.seconds / 2.0 : args.seconds,
               static_cast<double>(kMinOps) / kRatePerS + 0.5);
  const std::vector<Planned> plan =
      make_schedule(args.seed, kRatePerS, pass_s, kSteps);
  const std::set<std::size_t> keep = gate_sample(args.seed, plan.size());
  const ForecastCall call = [&](const serving::ForecastRequest& r) {
    return stack.forecast(r);
  };

  // Serving leaves the vCPUs idle between requests, and a halted vCPU of
  // a shared VM wakes after a delay that swings with the host's load: p50
  // moved by up to 1.6x between runs while the offline workload, which
  // keeps its vCPUs busy, did not. Idle-priority spinners keep every vCPU
  // awake from here on; set-up above is timed without them.
  const IdleSpinners spin(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));

  // Untimed warm-up under the same kind of load, on a schedule of its own:
  // packs of every size up to the batch have run before timing starts.
  account(out, run_open_loop(make_schedule(args.seed ^ 0x5741524Du,
                                           kRatePerS, kWarmupS, kSteps),
                             inputs, call, kGenThreads, {}));

  const LoadRun run = run_open_loop(plan, inputs, call, kGenThreads, keep);
  account(out, run);
  const std::vector<double> lat = latencies(run);
  require_ops(lat.size(), pass_s, "serving pass");

  if (!args.trace) {
    std::int64_t slo_met = 0, member_steps = 0;
    for (const Served& s : run.served) {
      if (s.ok && s.done_ms - s.due_ms <= kServeSloMs) ++slo_met;
      member_steps += s.member_steps;
    }
    const std::int64_t mismatches = gate_serve(stack, plan, inputs, run);
    out.failed += mismatches;
    out.correct = mismatches == 0;
    const std::vector<double> due = due_times(run);
    add_end_to_end(
        out, windowed_quantile(lat, due, 1e3 * pass_s, 0.5, kWindows),
        windowed_quantile(lat, due, 1e3 * pass_s, 0.9, kWindows),
        run.served.size(), slo_met,
        1e3 * static_cast<double>(member_steps) / run.window_ms, setup_s);
    return out;
  }

  const serving::ServerStats before = stack.stats();
  Tracer::get().arm(true);
  const LoadRun traced =
      run_open_loop(plan, inputs, call, kGenThreads, {});
  const serving::ServerStats after = stack.stats();
  account(out, traced);
  require_ops(latencies(traced).size(), pass_s, "traced serving pass");
  const std::int64_t mismatches = gate_serve(stack, plan, inputs, run);
  out.failed += mismatches;
  out.correct = mismatches == 0;

  std::vector<double> queue_wait, service, client, late;
  for (const Served& s : traced.served) {
    late.push_back(s.sent_ms - s.due_ms);
    if (!s.ok) continue;
    queue_wait.push_back(s.queue_wait_ms);
    service.push_back(s.total_ms - s.queue_wait_ms);
    client.push_back((s.done_ms - s.sent_ms) - s.total_ms);
  }
  const double packs = static_cast<double>(after.packs - before.packs);
  const double members_per_pack =
      static_cast<double>(after.member_steps - before.member_steps) /
      std::max(1.0, packs);
  out.add("serving.queue_wait_p50_ms", median(queue_wait), "ms");
  out.add("serving.service_p50_ms", median(service), "ms");
  out.add("serving.client_overhead_ms", median(client), "ms");
  out.add("serving.members_per_pack", members_per_pack, "count");
  out.add("loadgen.late_p90_ms", quantile(late, 0.9), "ms");
  out.add("loadgen.inflight_max", traced.inflight_max, "count");
  out.add("trace.overhead_share",
          median(latencies(traced)) / median(lat) - 1.0, "share");

  stack.local.reset();
  stack.cluster.reset();
  const std::int64_t pack_size =
      std::max<std::int64_t>(1, std::llround(members_per_pack));
  add_replay_metrics({*stack.model, *stack.engine, inputs, pack_size}, out);
  return out;
}

// ---------------------------------------------------------------- offline

struct OfflineStack {
  std::unique_ptr<core::AerisModel> model;
  std::unique_ptr<core::ParallelEnsembleEngine> engine;
};

core::EnsembleOptions offline_options() {
  core::EnsembleOptions opts;
  opts.threads = 2;
  opts.batch = 2;
  return opts;
}

struct RolloutPass {
  std::vector<double> lat;
  std::vector<double> start_ms;  ///< each op's start, from the pass start
  std::int64_t failed = 0;
  double elapsed_ms = 0.0;
  std::vector<std::vector<Tensor>> first;  ///< result of op 0 (gate)
};

/// Closed-loop rollouts for `seconds`, or longer until kMinOps have
/// finished, but not past kMaxPassS (or `seconds`, if that is longer).
RolloutPass rollout_pass(const OfflineStack& st, const Inputs& inputs,
                         double seconds) {
  RolloutPass pass;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t op = 0;; ++op) {
    const double elapsed_s = 1e-3 * ms_between(t0, Clock::now());
    if (elapsed_s >= std::max(seconds, kMaxPassS) ||
        (elapsed_s >= seconds && op >= kMinOps)) {
      break;
    }
    const int entry = static_cast<int>(op % inputs.inits.size());
    Scope span("core.ensemble_rollout", op + 1);
    const Clock::time_point a = Clock::now();
    try {
      auto r = st.engine->ensemble_rollout(
          inputs.inits[static_cast<std::size_t>(entry)],
          inputs.forcing_fn(entry), 1, kOfflineMembers, offline_options());
      pass.lat.push_back(ms_between(a, Clock::now()));
      pass.start_ms.push_back(ms_between(t0, a));
      if (op == 0) pass.first = std::move(r);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rollout %llu failed: %s\n",
                   static_cast<unsigned long long>(op), e.what());
      ++pass.failed;
    }
  }
  pass.elapsed_ms = ms_between(t0, Clock::now());
  require_ops(pass.lat.size(), 1e-3 * pass.elapsed_ms, "rollout pass");
  return pass;
}

}  // namespace

Outcome run_serve_open(const Args& args) { return run_serve(args, false); }
Outcome run_serve_cluster(const Args& args) { return run_serve(args, true); }

Outcome run_ensemble_offline(const Args& args) {
  Outcome out;
  const Inputs inputs(offline_config(), args.seed);
  const std::uint64_t ensemble_seed = args.seed * 0x9E3779B97F4A7C15ull + 1;
  double setup_s = 0.0;
  OfflineStack st = timed_setups(
      [&] {
        OfflineStack s;
        s.model = make_model(offline_config(), kWeightSeed);
        s.engine = std::make_unique<core::ParallelEnsembleEngine>(
            *s.model, core::TrigFlowConfig{}, sampler_config(),
            ensemble_seed);
        s.engine->ensemble_rollout(inputs.inits[0], inputs.forcing_fn(0), 1,
                                   kOfflineMembers, offline_options());
        return s;
      },
      setup_s);

  const double pass_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const RolloutPass pass = rollout_pass(st, inputs, pass_s);
  out.attempted = static_cast<std::int64_t>(pass.lat.size()) + pass.failed;
  out.failed = pass.failed;

  // Gate: the first rollout against the serial forecaster, same seed.
  const core::DiffusionForecaster ref(*st.model, core::TrigFlowConfig{},
                                      sampler_config(), ensemble_seed);
  const bool match = same_trajectories(
      pass.first, ref.ensemble_rollout(inputs.inits[0], inputs.forcing_fn(0),
                                       1, kOfflineMembers));
  if (!match) {
    std::fprintf(stderr, "gate: rollout 0 differs from the serial "
                         "forecaster\n");
    ++out.failed;
  }
  out.correct = match;

  if (!args.trace) {
    std::int64_t slo_met = 0;
    for (double ms : pass.lat) slo_met += ms <= kOfflineSloMs ? 1 : 0;
    const double member_steps =
        static_cast<double>(kOfflineMembers) * pass.lat.size();
    add_end_to_end(
        out,
        windowed_quantile(pass.lat, pass.start_ms, pass.elapsed_ms, 0.5,
                          kWindows),
        windowed_quantile(pass.lat, pass.start_ms, pass.elapsed_ms, 0.9,
                          kWindows),
        pass.lat.size() + static_cast<std::size_t>(pass.failed), slo_met,
        1e3 * member_steps / pass.elapsed_ms, setup_s);
    return out;
  }

  Tracer::get().arm(true);
  const RolloutPass traced = rollout_pass(st, inputs, pass_s);
  out.attempted += static_cast<std::int64_t>(traced.lat.size()) + traced.failed;
  out.failed += traced.failed;
  // No server in this workload: nothing queues, the caller's call is the
  // service, and every stacked call holds `batch` members.
  out.add("serving.queue_wait_p50_ms", 0.0, "ms");
  out.add("serving.service_p50_ms", median(traced.lat), "ms");
  out.add("serving.client_overhead_ms", 0.0, "ms");
  out.add("serving.members_per_pack",
          static_cast<double>(offline_options().batch), "count");
  out.add("loadgen.late_p90_ms", 0.0, "ms");
  out.add("loadgen.inflight_max", 1.0, "count");
  out.add("trace.overhead_share",
          median(traced.lat) / median(pass.lat) - 1.0, "share");
  add_replay_metrics(
      {*st.model, *st.engine, inputs, offline_options().batch}, out);
  return out;
}

}  // namespace perfbench
