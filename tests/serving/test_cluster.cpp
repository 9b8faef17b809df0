#include "aeris/serving/cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aeris/core/forecaster.hpp"
#include "aeris/serving/server.hpp"
#include "aeris/swipe/fault.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::serving {
namespace {

using core::AerisModel;
using core::ModelConfig;
using core::ParallelEnsembleEngine;

ModelConfig cl_cfg() {
  ModelConfig c;
  c.h = 8;
  c.w = 8;
  c.in_channels = 8;  // 2 * V + F with V = 3, F = 2
  c.out_channels = 3;
  c.dim = 16;
  c.depth = 2;
  c.heads = 2;
  c.ffn_hidden = 32;
  c.win_h = 4;
  c.win_w = 4;
  c.cond_dim = 16;
  c.time_features = 8;
  return c;
}

AerisModel make_model(std::uint64_t seed) {
  AerisModel model(cl_cfg(), seed);
  Philox rng(seed + 100);
  for (nn::Param* p : model.params()) {
    if (p->name.find("head") != std::string::npos ||
        p->name.find("adaln") != std::string::npos) {
      rng.fill_normal(p->value, 7, 0);
      scale_(p->value, 0.1f);
    }
  }
  return model;
}

Tensor make_init(std::uint64_t key) {
  Philox rng(5);
  Tensor init({8, 8, 3});
  rng.fill_normal(init, 1, key);
  return init;
}

Tensor make_forcing(std::int64_t step) {
  Philox rng(6);
  Tensor f({8, 8, 2});
  rng.fill_normal(f, 2, static_cast<std::uint64_t>(step));
  return f;
}

core::TrigSamplerConfig cl_sampler() {
  core::TrigSamplerConfig sc;
  sc.steps = 3;
  sc.churn = 0.5f;
  return sc;
}

ParallelEnsembleEngine make_engine(const AerisModel& model) {
  return ParallelEnsembleEngine(model, core::TrigFlowConfig{}, cl_sampler(),
                                0);
}

ForecastRequest make_request(std::uint64_t seed, std::int64_t members,
                             std::int64_t steps) {
  ForecastRequest req;
  req.init = make_init(seed);
  req.forcings_at = make_forcing;
  req.members = members;
  req.steps = steps;
  req.seed = seed;
  return req;
}

void expect_bitwise_equal(const ForecastResult& a, const ForecastResult& b) {
  ASSERT_EQ(a.status, RequestStatus::kOk);
  ASSERT_EQ(b.status, RequestStatus::kOk);
  ASSERT_EQ(a.trajectories.size(), b.trajectories.size());
  for (std::size_t m = 0; m < a.trajectories.size(); ++m) {
    ASSERT_EQ(a.trajectories[m].size(), b.trajectories[m].size());
    for (std::size_t s = 0; s < a.trajectories[m].size(); ++s) {
      const Tensor& ta = a.trajectories[m][s];
      const Tensor& tb = b.trajectories[m][s];
      ASSERT_EQ(ta.shape(), tb.shape());
      ASSERT_EQ(std::memcmp(ta.data(), tb.data(),
                            static_cast<std::size_t>(ta.numel()) *
                                sizeof(float)),
                0)
          << "member " << m << " step " << s;
    }
  }
}

// The distribution contract: trajectories served over SWiPe worker ranks
// are bitwise-identical to the single-process ForecastServer, whatever the
// rank count and however the front-end splits packs across ranks.
TEST(ClusterForecastServer, MatchesSingleProcessServingBitwise) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  constexpr int kClients = 3;
  const std::int64_t members = 3, steps = 2;

  std::vector<ForecastResult> single(kClients);
  {
    ServerOptions so;
    so.batch = 4;
    ForecastServer server(engine, so);
    for (int i = 0; i < kClients; ++i) {
      single[static_cast<std::size_t>(i)] = server.forecast(
          make_request(42 + static_cast<std::uint64_t>(i), members, steps));
    }
  }

  for (const int ranks : {2, 4}) {
    ClusterOptions co;
    co.ranks = ranks;
    co.serve.batch = 2;  // force multi-pack splits
    ClusterForecastServer cluster(engine, co);

    std::vector<ForecastResult> got(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        got[static_cast<std::size_t>(i)] = cluster.forecast(
            make_request(42 + static_cast<std::uint64_t>(i), members,
                         steps));
      });
    }
    for (auto& t : clients) t.join();
    for (int i = 0; i < kClients; ++i) {
      expect_bitwise_equal(got[static_cast<std::size_t>(i)],
                           single[static_cast<std::size_t>(i)]);
    }
    const ServerStats st = cluster.stats();
    EXPECT_EQ(st.workers_lost, 0);
    EXPECT_EQ(st.requeued_member_steps, 0);
    EXPECT_EQ(st.quorum_drains, 0);
  }
}

// Robustness core: a worker rank killed mid-pack (deterministic FaultPlan
// kill on its first result send) must surface as a recovered incarnation —
// the request completes bitwise-identically, the dead rank's leased steps
// are requeued, and the stats account for exactly one lost worker.
TEST(ClusterForecastServer, WorkerDeathRecoversBitwise) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ForecastResult single;
  {
    ForecastServer server(engine, ServerOptions{});
    single = server.forecast(make_request(7, 4, 3));
  }

  ClusterOptions co;
  co.ranks = 3;  // two workers; one will die
  co.serve.batch = 2;
  auto plan = std::make_shared<swipe::FaultPlan>();
  // Heartbeats are off (default), so a worker's sends are results only:
  // rank 1 dies the moment it tries to deliver its first result.
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 1, 0});
  co.fault_plan = plan;
  ClusterForecastServer cluster(engine, co);

  const ForecastResult got = cluster.forecast(make_request(7, 4, 3));
  expect_bitwise_equal(got, single);

  EXPECT_EQ(cluster.alive_workers(), 1);
  const ServerStats st = cluster.stats();
  EXPECT_EQ(st.workers_lost, 1);
  EXPECT_GT(st.requeued_member_steps, 0);
  EXPECT_EQ(st.quorum_drains, 0);
  EXPECT_EQ(st.completed, 1);
}

// Two ranks killed in the same pack window: World::run must aggregate both
// originating failures, the front-end must count both dead, every leased
// member must be requeued exactly once (members_served * steps committed
// steps total — no member finishes short, none runs twice), and the
// request still completes bitwise. Both kills are latched receive-side
// events at ordinal 0: whichever rank takes its first pack first dies and
// poisons the world, and the other dies its own (originating) death on
// its first pack or, if that never came, on its next poll.
TEST(ClusterForecastServer, TwoConcurrentWorkerDeathsAggregateAndRecover) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ForecastResult single;
  {
    ForecastServer server(engine, ServerOptions{});
    single = server.forecast(make_request(9, 4, 3));
  }

  ClusterOptions co;
  co.ranks = 4;  // three workers; two die in the same window
  co.serve.batch = 2;  // 4 members -> two step-0 packs, one per dying rank
  auto plan = std::make_shared<swipe::FaultPlan>();
  for (const int rank : {1, 2}) {
    swipe::FaultEvent kill;
    kill.kind = swipe::FaultKind::kKillRank;
    kill.rank = rank;
    kill.nth_send = 0;  // the first pack this rank takes
    kill.latch = true;
    kill.on_recv = true;
    plan->add(kill);
  }
  co.fault_plan = plan;
  ClusterForecastServer cluster(engine, co);

  const ForecastResult got = cluster.forecast(make_request(9, 4, 3));
  expect_bitwise_equal(got, single);

  EXPECT_EQ(cluster.alive_workers(), 1);
  const ServerStats st = cluster.stats();
  EXPECT_EQ(st.workers_lost, 2);
  EXPECT_GT(st.requeued_member_steps, 0);
  // Exactly-once requeue: the committed member-step count equals the
  // request's work, with no duplicates from the double failure.
  EXPECT_EQ(st.member_steps, 4 * 3);
  EXPECT_EQ(st.completed, 1);
}

// Quorum loss: with one worker and quorum 1, killing it must drain the
// in-flight request with a typed kWorkerLost error (not a hang, not a
// crash) and refuse subsequent admissions the same way.
TEST(ClusterForecastServer, QuorumLossDrainsInFlightWithTypedErrors) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ClusterOptions co;
  co.ranks = 2;  // a single worker
  co.min_quorum = 1;
  co.serve.batch = 2;
  auto plan = std::make_shared<swipe::FaultPlan>();
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 1, 0});
  co.fault_plan = plan;
  ClusterForecastServer cluster(engine, co);

  const ForecastResult r = cluster.forecast(make_request(3, 2, 2));
  EXPECT_EQ(r.status, RequestStatus::kWorkerLost);
  EXPECT_NE(r.error, nullptr);
  EXPECT_NE(r.error_message.find("quorum"), std::string::npos);
  ASSERT_NE(r.error, nullptr);
  EXPECT_THROW(std::rethrow_exception(r.error), WorkerLostError);

  // Parked: later admissions are refused with the same typed error.
  const ForecastResult after = cluster.forecast(make_request(4, 1, 1));
  EXPECT_EQ(after.status, RequestStatus::kWorkerLost);
  EXPECT_NE(after.error, nullptr);

  EXPECT_EQ(cluster.alive_workers(), 0);
  const ServerStats st = cluster.stats();
  EXPECT_EQ(st.workers_lost, 1);
  EXPECT_EQ(st.quorum_drains, 1);
}

// A hung (not crashed) worker: it stops heartbeating while holding a
// lease, so the front-end's lease/heartbeat monitor must condemn it,
// poison the world on its behalf, and recover on the survivor — the
// client still gets a bitwise-correct result. The hang is a receive-side
// delay on rank 1's first pack; heartbeats are sends, so they do not move
// the receive ordinal.
TEST(ClusterForecastServer, LeaseTimeoutCondemnsHungWorker) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ForecastResult single;
  {
    ForecastServer server(engine, ServerOptions{});
    single = server.forecast(make_request(5, 2, 2));
  }

  ClusterOptions co;
  co.ranks = 3;
  co.serve.batch = 2;
  co.heartbeat_interval_ms = 10.0;
  co.heartbeat_timeout_ms = 120.0;
  co.lease_timeout_ms = 120.0;
  auto plan = std::make_shared<swipe::FaultPlan>();
  swipe::FaultEvent hang;
  hang.kind = swipe::FaultKind::kDelayMsg;
  hang.rank = 1;
  hang.nth_send = 0;  // hang on the very first pack
  hang.delay_ms = 700;
  hang.on_recv = true;
  plan->add(hang);
  co.fault_plan = plan;
  ClusterForecastServer cluster(engine, co);

  const ForecastResult got = cluster.forecast(make_request(5, 2, 2));
  expect_bitwise_equal(got, single);

  EXPECT_EQ(cluster.alive_workers(), 1);
  const ServerStats st = cluster.stats();
  EXPECT_EQ(st.workers_lost, 1);
  EXPECT_GT(st.requeued_member_steps, 0);
}

// Stats cross-check against a scripted drill: 2 requests served cleanly,
// then a kill mid-flight on a later request. Every counter must line up
// with the script — accepted, completed, member_steps (exactly the
// committed work), workers_lost, and requeued_member_steps bounded by the
// dead rank's possible lease footprint.
TEST(ClusterForecastServer, StatsAccountForAScriptedFaultDrill) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ClusterOptions co;
  co.ranks = 3;
  co.serve.batch = 2;
  auto plan = std::make_shared<swipe::FaultPlan>();
  // Rank 2's second result send dies — after the warmup request has
  // already exercised both workers.
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 2, 1});
  co.fault_plan = plan;
  ClusterForecastServer cluster(engine, co);

  const std::int64_t members = 4, steps = 2;
  const ForecastResult r1 = cluster.forecast(make_request(21, members, steps));
  const ForecastResult r2 = cluster.forecast(make_request(22, members, steps));
  EXPECT_EQ(r1.status, RequestStatus::kOk);
  EXPECT_EQ(r2.status, RequestStatus::kOk);

  const ServerStats st = cluster.stats();
  EXPECT_EQ(st.accepted, 2);
  EXPECT_EQ(st.rejected, 0);
  EXPECT_EQ(st.completed, 2);
  EXPECT_EQ(st.workers_lost, 1);
  EXPECT_EQ(st.quorum_drains, 0);
  // Committed steps are exactly the two requests' work: requeued steps
  // were recomputed, never double-counted.
  EXPECT_EQ(st.member_steps, 2 * members * steps);
  // The dead rank held at most max_outstanding_packs * batch members, each
  // with at most `steps` remaining.
  EXPECT_GT(st.requeued_member_steps, 0);
  EXPECT_LE(st.requeued_member_steps,
            co.max_outstanding_packs * co.serve.batch * steps);
  EXPECT_EQ(st.faulted, 0);
  EXPECT_EQ(st.failed_members, 0);
}

// Randomized chaos drill (the sanitizer leg drives this one under
// TSan/ASan): concurrent clients against a cluster whose workers die at
// pseudo-random send ordinals. Liveness + typed-terminal guarantees:
// every request terminates, nothing is malformed, and the counters stay
// consistent.
TEST(ClusterForecastServer, ChaosKillDrillEveryRequestTerminates) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ClusterOptions co;
  co.ranks = 4;
  co.min_quorum = 1;
  co.serve.batch = 2;
  auto plan = std::make_shared<swipe::FaultPlan>();
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 1, 2});
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 3, 4});
  co.fault_plan = plan;
  ClusterForecastServer cluster(engine, co);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 3;
  std::atomic<int> terminated{0};
  std::atomic<int> malformed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < kRequestsPerClient; ++k) {
        const ForecastResult r = cluster.forecast(make_request(
            static_cast<std::uint64_t>(100 + c * 10 + k), 2, 2));
        ++terminated;
        const bool sane =
            r.status == RequestStatus::kOk
                ? !r.trajectories.empty()
                : (r.error != nullptr && !r.error_message.empty());
        if (!sane) ++malformed;
      }
    });
  }
  for (auto& t : clients) t.join();
  cluster.stop();

  EXPECT_EQ(terminated.load(), kClients * kRequestsPerClient)
      << "a request hung or was dropped";
  EXPECT_EQ(malformed.load(), 0);
  const ServerStats st = cluster.stats();
  EXPECT_EQ(st.accepted + st.rejected, kClients * kRequestsPerClient);
  // The first kill always fires; the second fires only if its rank reaches
  // the scheduled send ordinal before unwinding (an exact-ordinal kill now
  // fires even in a poisoned world, but a rank that never sends again has
  // nothing to fire on), and the plan arms the first incarnation only — so
  // 1 or 2 deaths, never 0, never more.
  EXPECT_GE(st.workers_lost, 1);
  EXPECT_LE(st.workers_lost, 2);
  EXPECT_GT(st.member_steps, 0);
}

// Shutdown while work is distributed: stop() must finalize everything
// with the typed shutdown rejection, workers must exit, and the
// destructor must not hang.
TEST(ClusterForecastServer, StopIsCleanAndIdempotent) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ClusterOptions co;
  co.ranks = 3;
  ClusterForecastServer cluster(engine, co);
  const ForecastResult warm = cluster.forecast(make_request(2, 1, 1));
  EXPECT_EQ(warm.status, RequestStatus::kOk);
  cluster.stop();
  cluster.stop();  // idempotent

  const ForecastResult r = cluster.forecast(make_request(3, 1, 1));
  EXPECT_EQ(r.status, RequestStatus::kRejected);
  EXPECT_NE(r.error, nullptr);
}

// Forcings of the wrong shape fault only their own request, on the cluster
// front-end too. The front-end rank fetches forcings before it dispatches,
// so a gate request blocking in its first fetch holds dispatch while a
// bad-F request and a healthy one queue behind it, in that order: the next
// pack carries the bad item first.
// The cluster twin of the server's wrong-shape test: the bad request
// faults on its first fetch, whatever the retry budget, and the healthy
// request packed with it stays bitwise-equal to the serial forecaster.
void expect_wrong_shape_faults_alone(std::int64_t max_step_retries) {
  AerisModel model = make_model(53);
  ParallelEnsembleEngine engine = make_engine(model);
  ClusterOptions co;
  co.ranks = 2;
  co.serve.batch = 4;
  co.serve.max_step_retries = max_step_retries;
  ClusterForecastServer cluster(engine, co);

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  const core::ForcingFn gate_fn = [&](std::int64_t s) {
    entered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return make_forcing(s);
  };
  const auto wait_accepted = [&](std::int64_t n) {
    while (cluster.stats().accepted < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  ForecastResult gate_r, bad_r, good_r;
  std::thread gate([&] {
    ForecastRequest req = make_request(1, 1, 1);
    req.forcings_at = gate_fn;
    gate_r = cluster.forecast(req);
  });
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<int> wrong_calls{0};
  std::thread bad([&] {
    ForecastRequest req = make_request(2, 1, 1);
    req.forcings_at = [&](std::int64_t) {
      ++wrong_calls;
      return Tensor({8, 8, 3});
    };
    bad_r = cluster.forecast(req);
  });
  wait_accepted(2);
  std::thread good([&] { good_r = cluster.forecast(make_request(61, 2, 2)); });
  wait_accepted(3);
  release.store(true);
  gate.join();
  bad.join();
  good.join();

  EXPECT_EQ(gate_r.status, RequestStatus::kOk) << gate_r.error_message;
  ASSERT_EQ(good_r.status, RequestStatus::kOk) << good_r.error_message;
  core::DiffusionForecaster serial(model, core::TrigFlowConfig{},
                                   cl_sampler(), 61);
  const auto ref = serial.ensemble_rollout(make_init(61), make_forcing, 2, 2);
  ForecastResult want;
  want.status = RequestStatus::kOk;
  want.trajectories = ref;
  expect_bitwise_equal(want, good_r);
  EXPECT_EQ(bad_r.status, RequestStatus::kFault);
  EXPECT_NE(bad_r.error_message.find("[8, 8, 3]"), std::string::npos)
      << bad_r.error_message;
  EXPECT_NE(bad_r.error_message.find("[8, 8, 2]"), std::string::npos)
      << bad_r.error_message;
  EXPECT_EQ(bad_r.error_message.find("transient"), std::string::npos)
      << bad_r.error_message;
  EXPECT_EQ(wrong_calls.load(), 1);
  EXPECT_EQ(cluster.stats().transient_retries, 0);
  EXPECT_EQ(cluster.stats().faulted, 1);
}

TEST(ClusterForecastServer, WrongShapedForcingsFaultOnlyTheirOwnRequest) {
  expect_wrong_shape_faults_alone(0);  // no backoff timing involved
}

TEST(ClusterForecastServer,
     WrongShapedForcingsFaultOnlyTheirOwnRequestWithRetries) {
  expect_wrong_shape_faults_alone(3);
}

TEST(ClusterOptions, FromEnvReadsKnobs) {
  ::setenv("AERIS_SERVE_RANKS", "5", 1);
  ::setenv("AERIS_SERVE_HEARTBEAT_MS", "2.5", 1);
  ::setenv("AERIS_SERVE_REJOIN", "1", 1);
  const ClusterOptions o = ClusterOptions::from_env();
  EXPECT_EQ(o.ranks, 5);
  EXPECT_DOUBLE_EQ(o.heartbeat_interval_ms, 2.5);
  EXPECT_DOUBLE_EQ(o.heartbeat_timeout_ms, 20.0);  // 8x the interval
  EXPECT_TRUE(o.rejoin);
  ::unsetenv("AERIS_SERVE_RANKS");
  ::unsetenv("AERIS_SERVE_HEARTBEAT_MS");
  ::unsetenv("AERIS_SERVE_REJOIN");

  // A value that does not parse in full is an error naming the knob, not
  // a silent prefix parse or a fall back to the default.
  for (const char* bad : {"10abc", "abc"}) {
    for (const char* knob : {"AERIS_SERVE_RANKS", "AERIS_SERVE_LEASE_MS"}) {
      ::setenv(knob, bad, 1);
      try {
        (void)ClusterOptions::from_env();
        ADD_FAILURE() << knob << "=" << bad << " parsed";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(knob), std::string::npos) << what;
        EXPECT_NE(what.find(bad), std::string::npos) << what;
      }
      ::unsetenv(knob);
    }
  }
}

TEST(ClusterOptions, FromEnvReadsQuorumLeaseAndProbationKnobs) {
  ::setenv("AERIS_SERVE_QUORUM", "2", 1);
  ::setenv("AERIS_SERVE_HEARTBEAT_MS", "4", 1);
  ::setenv("AERIS_SERVE_HEARTBEAT_TIMEOUT_MS", "12", 1);
  ::setenv("AERIS_SERVE_LEASE_MS", "300", 1);
  ::setenv("AERIS_SERVE_PROBATION_MS", "45", 1);
  ::setenv("AERIS_SERVE_MAX_RANKS", "6", 1);
  const ClusterOptions o = ClusterOptions::from_env();
  for (const char* knob :
       {"AERIS_SERVE_QUORUM", "AERIS_SERVE_HEARTBEAT_MS",
        "AERIS_SERVE_HEARTBEAT_TIMEOUT_MS", "AERIS_SERVE_LEASE_MS",
        "AERIS_SERVE_PROBATION_MS", "AERIS_SERVE_MAX_RANKS"}) {
    ::unsetenv(knob);
  }
  EXPECT_EQ(o.min_quorum, 2);
  EXPECT_DOUBLE_EQ(o.heartbeat_interval_ms, 4.0);
  EXPECT_DOUBLE_EQ(o.heartbeat_timeout_ms, 12.0);  // explicit beats 8x
  EXPECT_DOUBLE_EQ(o.lease_timeout_ms, 300.0);
  EXPECT_DOUBLE_EQ(o.probation_ms, 45.0);
  EXPECT_EQ(o.max_ranks, 6);
}

// Unset knobs leave every field at its compiled-in default; with
// heartbeats off the detector timeout stays off too.
TEST(ClusterOptions, FromEnvWithNothingSetKeepsDefaults) {
  for (const char* knob :
       {"AERIS_SERVE_RANKS", "AERIS_SERVE_QUORUM", "AERIS_SERVE_HEARTBEAT_MS",
        "AERIS_SERVE_HEARTBEAT_TIMEOUT_MS", "AERIS_SERVE_LEASE_MS",
        "AERIS_SERVE_REJOIN", "AERIS_SERVE_PROBATION_MS",
        "AERIS_SERVE_MAX_RANKS"}) {
    ::unsetenv(knob);
  }
  const ClusterOptions d;
  const ClusterOptions o = ClusterOptions::from_env();
  EXPECT_EQ(o.ranks, d.ranks);
  EXPECT_EQ(o.min_quorum, d.min_quorum);
  EXPECT_EQ(o.heartbeat_interval_ms, d.heartbeat_interval_ms);
  ASSERT_EQ(d.heartbeat_interval_ms, 0.0);
  EXPECT_EQ(o.heartbeat_timeout_ms, 0.0);
  EXPECT_EQ(o.lease_timeout_ms, d.lease_timeout_ms);
  EXPECT_EQ(o.rejoin, d.rejoin);
  EXPECT_EQ(o.probation_ms, d.probation_ms);
  EXPECT_EQ(o.max_ranks, d.max_ranks);
}

// Each ClusterOptions invariant is checked at construction, not clamped:
// the constructor throws std::invalid_argument naming the field and the
// offending value.
void expect_rejected(const ClusterOptions& co, const std::string& field,
                     const std::string& value) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);
  try {
    ClusterForecastServer cluster(engine, co);
    ADD_FAILURE() << field << " = " << value << " accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(field + " = " + value), std::string::npos) << what;
  }
}

TEST(ClusterOptions, RanksBelowTwoThrows) {
  ClusterOptions co;
  co.ranks = 1;
  expect_rejected(co, "ranks", "1");
}

TEST(ClusterOptions, MinQuorumBelowOneThrows) {
  ClusterOptions co;
  co.min_quorum = 0;
  expect_rejected(co, "min_quorum", "0");
}

TEST(ClusterOptions, MaxOutstandingPacksBelowOneThrows) {
  ClusterOptions co;
  co.max_outstanding_packs = 0;
  expect_rejected(co, "max_outstanding_packs", "0");
}

TEST(ClusterOptions, PositiveMaxRanksBelowRanksThrows) {
  ClusterOptions co;
  co.ranks = 3;
  co.max_ranks = 2;
  expect_rejected(co, "max_ranks", "2");
  // The documented sentinel stays: max_ranks <= 0 means `ranks`.
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);
  co.rejoin = true;
  co.max_ranks = 0;
  ClusterForecastServer cluster(engine, co);
  EXPECT_FALSE(cluster.offer_worker());  // no headroom above `ranks`
}

}  // namespace
}  // namespace aeris::serving
