#include "aeris/serving/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "aeris/core/forecaster.hpp"
#include "aeris/serving/cluster.hpp"
#include "aeris/tensor/numerics.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::serving {
namespace {

using core::AerisModel;
using core::DiffusionForecaster;
using core::ForcingFn;
using core::ModelConfig;
using core::ParallelEnsembleEngine;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

ModelConfig srv_cfg() {
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
  AerisModel model(srv_cfg(), seed);
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

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

// The tentpole contract: concurrent clients with distinct seeds, packed
// together through one shared engine, each get trajectories
// bitwise-identical to the serial DiffusionForecaster with their seed.
TEST(ForecastServer, ConcurrentRequestsMatchSerialBitwise) {
  AerisModel model = make_model(11);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 3;
  sc.churn = 0.5f;
  ParallelEnsembleEngine engine(model, tf, sc, /*engine seed unused*/ 0);

  ServerOptions opts;
  opts.batch = 4;
  opts.workers = 2;
  ForecastServer server(engine, opts);

  constexpr int kClients = 3;
  const std::int64_t steps = 2, members = 3;
  std::vector<ForecastResult> results(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      ForecastRequest req;
      req.init = make_init(static_cast<std::uint64_t>(i));
      req.forcings_at = make_forcing;
      req.members = members;
      req.steps = steps;
      req.seed = 42 + static_cast<std::uint64_t>(i);
      results[static_cast<std::size_t>(i)] = server.forecast(req);
    });
  }
  for (auto& t : clients) t.join();

  DiffusionForecaster serial0(model, tf, sc, 42);
  for (int i = 0; i < kClients; ++i) {
    const ForecastResult& r = results[static_cast<std::size_t>(i)];
    ASSERT_EQ(r.status, RequestStatus::kOk) << r.error_message;
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.solver_steps, sc.steps);
    EXPECT_EQ(r.members_served, members);
    ASSERT_EQ(static_cast<std::int64_t>(r.trajectories.size()), members);
    DiffusionForecaster serial(model, tf, sc,
                               42 + static_cast<std::uint64_t>(i));
    const auto ref = serial.ensemble_rollout(
        make_init(static_cast<std::uint64_t>(i)), make_forcing, steps,
        members);
    for (std::int64_t m = 0; m < members; ++m) {
      const auto& got = r.trajectories[static_cast<std::size_t>(m)];
      ASSERT_EQ(got.size(), ref[static_cast<std::size_t>(m)].size());
      for (std::size_t s = 0; s < got.size(); ++s) {
        expect_bitwise_equal(ref[static_cast<std::size_t>(m)][s], got[s],
                             "client " + std::to_string(i) + " member " +
                                 std::to_string(m) + " step " +
                                 std::to_string(s));
      }
      EXPECT_TRUE(r.members[static_cast<std::size_t>(m)].ok);
      EXPECT_FALSE(r.members[static_cast<std::size_t>(m)].quarantined);
    }
  }
}

TEST(ForecastServer, EdmRequestsMatchSerialBitwise) {
  AerisModel model = make_model(13);
  core::EdmConfig edm;
  core::EdmSamplerConfig sc;
  sc.steps = 3;
  ParallelEnsembleEngine engine(model, edm, sc, 0);
  ServerOptions opts;
  opts.batch = 3;
  opts.workers = 2;
  ForecastServer server(engine, opts);

  std::vector<ForecastResult> results(2);
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&, i] {
      ForecastRequest req;
      req.init = make_init(7);
      req.forcings_at = make_forcing;
      req.members = 2;
      req.steps = 2;
      req.seed = 77 + static_cast<std::uint64_t>(i);
      results[static_cast<std::size_t>(i)] = server.forecast(req);
    });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < 2; ++i) {
    const ForecastResult& r = results[static_cast<std::size_t>(i)];
    ASSERT_EQ(r.status, RequestStatus::kOk) << r.error_message;
    DiffusionForecaster serial(model, edm, sc,
                               77 + static_cast<std::uint64_t>(i));
    const auto ref = serial.ensemble_rollout(make_init(7), make_forcing, 2, 2);
    for (std::size_t m = 0; m < 2; ++m) {
      for (std::size_t s = 0; s < 2; ++s) {
        expect_bitwise_equal(ref[m][s], r.trajectories[m][s],
                             "edm client " + std::to_string(i));
      }
    }
  }
}

// Load shedding: a full admission queue rejects with a typed reason
// instead of queueing unboundedly (and the shed request never computes).
TEST(ForecastServer, QueueSaturationShedsWithTypedError) {
  AerisModel model = make_model(15);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 2;
  ParallelEnsembleEngine engine(model, tf, sc, 0);
  ServerOptions opts;
  opts.workers = 1;
  opts.batch = 1;
  opts.queue_capacity = 2;
  ForecastServer server(engine, opts);

  std::atomic<bool> release{false};
  const ForcingFn blocking = [&](std::int64_t s) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return make_forcing(s);
  };

  std::vector<ForecastResult> results(2);
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&, i] {
      ForecastRequest req;
      req.init = make_init(0);
      req.forcings_at = blocking;
      req.seed = static_cast<std::uint64_t>(i);
      results[static_cast<std::size_t>(i)] = server.forecast(req);
    });
  }
  while (server.stats().accepted < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ForecastRequest extra;
  extra.init = make_init(0);
  extra.forcings_at = blocking;
  const ForecastResult shed = server.forecast(extra);
  EXPECT_EQ(shed.status, RequestStatus::kRejected);
  EXPECT_TRUE(shed.trajectories.empty());
  ASSERT_TRUE(shed.error != nullptr);
  try {
    std::rethrow_exception(shed.error);
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kQueueFull);
  }
  EXPECT_NE(shed.error_message.find("queue full"), std::string::npos);

  release.store(true);
  for (auto& t : clients) t.join();
  for (const ForecastResult& r : results) {
    EXPECT_EQ(r.status, RequestStatus::kOk) << r.error_message;
  }
  EXPECT_EQ(server.stats().rejected, 1);
}

// A request whose deadline passes while it waits behind other work
// terminates with DeadlineExceededError — it is never silently dropped.
TEST(ForecastServer, DeadlineExpiresWhileQueued) {
  AerisModel model = make_model(17);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 2;
  ParallelEnsembleEngine engine(model, tf, sc, 0);
  ServerOptions opts;
  opts.workers = 1;
  opts.batch = 1;
  ForecastServer server(engine, opts);

  std::atomic<bool> release{false};
  const ForcingFn blocking = [&](std::int64_t s) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return make_forcing(s);
  };

  std::thread first([&] {
    ForecastRequest req;
    req.init = make_init(0);
    req.forcings_at = blocking;
    const ForecastResult r = server.forecast(req);
    EXPECT_EQ(r.status, RequestStatus::kOk) << r.error_message;
  });
  while (server.stats().accepted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ForecastRequest doomed;
  doomed.init = make_init(0);
  doomed.forcings_at = make_forcing;
  doomed.deadline_ms = 20.0;
  std::thread second([&] {
    const ForecastResult r = server.forecast(doomed);
    EXPECT_EQ(r.status, RequestStatus::kDeadlineExceeded) << r.error_message;
    EXPECT_TRUE(r.trajectories.empty());  // return_partial not requested
    ASSERT_TRUE(r.error != nullptr);
    EXPECT_THROW(std::rethrow_exception(r.error), DeadlineExceededError);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  release.store(true);
  first.join();
  second.join();
  EXPECT_EQ(server.stats().deadline_expired, 1);
}

// Mid-rollout expiry with return_partial: the prefix computed before the
// deadline comes back, bitwise-identical to the serial reference prefix.
TEST(ForecastServer, DeadlinePartialPrefixIsBitwise) {
  AerisModel model = make_model(19);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 2;
  ParallelEnsembleEngine engine(model, tf, sc, 0);
  ForecastServer server(engine, ServerOptions{});

  // Step 2's forcing fetch outlives the deadline; steps 0-1 commit first.
  const ForcingFn slow_tail = [](std::int64_t s) {
    if (s == 2) std::this_thread::sleep_for(std::chrono::milliseconds(600));
    return make_forcing(s);
  };

  ForecastRequest req;
  req.init = make_init(3);
  req.forcings_at = slow_tail;
  req.steps = 4;
  req.seed = 9;
  req.deadline_ms = 300.0;
  req.return_partial = true;
  const ForecastResult r = server.forecast(req);

  ASSERT_EQ(r.status, RequestStatus::kDeadlineExceeded) << r.error_message;
  ASSERT_EQ(r.trajectories.size(), 1u);
  const auto& prefix = r.trajectories[0];
  ASSERT_GE(prefix.size(), 2u);
  ASSERT_LT(prefix.size(), 4u);
  EXPECT_EQ(r.members[0].steps_completed,
            static_cast<std::int64_t>(prefix.size()));
  DiffusionForecaster serial(model, tf, sc, 9);
  const auto ref = serial.ensemble_rollout(make_init(3), make_forcing, 4, 1);
  for (std::size_t s = 0; s < prefix.size(); ++s) {
    expect_bitwise_equal(ref[0][s], prefix[s],
                         "partial step " + std::to_string(s));
  }
}

// Numerical quarantine: a one-off NaN in the forcings diverges the member
// once; the retry on a fresh (salted) noise stream re-fetches clean
// forcings and the request completes — flagged, finite, full length.
TEST(ForecastServer, QuarantineRecoversFromTransientNaN) {
  AerisModel model = make_model(23);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 2;
  ParallelEnsembleEngine engine(model, tf, sc, 0);
  ServerOptions opts;
  opts.batch = 4;
  ForecastServer server(engine, opts);

  std::atomic<int> poisoned{0};
  const ForcingFn nan_once = [&](std::int64_t s) {
    Tensor f = make_forcing(s);
    if (s == 1 && poisoned.fetch_add(1) == 0) f.data()[0] = kNaN;
    return f;
  };

  // A clean request runs concurrently (and may share packs with the
  // poisoned one): its trajectories must stay bitwise-correct.
  std::thread clean_client([&] {
    ForecastRequest req;
    req.init = make_init(1);
    req.forcings_at = make_forcing;
    req.members = 2;
    req.steps = 3;
    req.seed = 42;
    const ForecastResult r = server.forecast(req);
    ASSERT_EQ(r.status, RequestStatus::kOk) << r.error_message;
    DiffusionForecaster serial(model, tf, sc, 42);
    const auto ref = serial.ensemble_rollout(make_init(1), make_forcing, 3, 2);
    for (std::size_t m = 0; m < 2; ++m) {
      for (std::size_t s = 0; s < 3; ++s) {
        expect_bitwise_equal(ref[m][s], r.trajectories[m][s],
                             "clean batch-mate m" + std::to_string(m));
      }
    }
  });

  ForecastRequest req;
  req.init = make_init(2);
  req.forcings_at = nan_once;
  req.members = 1;
  req.steps = 3;
  req.seed = 7;
  const ForecastResult r = server.forecast(req);
  clean_client.join();

  ASSERT_EQ(r.status, RequestStatus::kOk) << r.error_message;
  ASSERT_EQ(r.members.size(), 1u);
  EXPECT_TRUE(r.members[0].quarantined);
  EXPECT_TRUE(r.members[0].ok);
  EXPECT_EQ(r.members[0].steps_completed, 3);
  for (const Tensor& t : r.trajectories[0]) {
    EXPECT_TRUE(tensor::all_finite(t));
  }
  EXPECT_GE(server.stats().quarantined_members, 1);
}

// Persistent divergence: the quarantine retry also fails, the member is
// reported as a NumericalError — and batch-mates still finish bitwise.
TEST(ForecastServer, PersistentNaNIsTypedAndDoesNotPoisonBatchMates) {
  AerisModel model = make_model(29);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 2;
  ParallelEnsembleEngine engine(model, tf, sc, 0);
  ServerOptions opts;
  opts.batch = 4;
  ForecastServer server(engine, opts);

  const ForcingFn always_nan = [](std::int64_t s) {
    Tensor f = make_forcing(s);
    f.data()[3] = kNaN;
    return f;
  };

  std::thread clean_client([&] {
    ForecastRequest req;
    req.init = make_init(1);
    req.forcings_at = make_forcing;
    req.members = 2;
    req.steps = 2;
    req.seed = 42;
    const ForecastResult r = server.forecast(req);
    ASSERT_EQ(r.status, RequestStatus::kOk) << r.error_message;
    DiffusionForecaster serial(model, tf, sc, 42);
    const auto ref = serial.ensemble_rollout(make_init(1), make_forcing, 2, 2);
    for (std::size_t m = 0; m < 2; ++m) {
      for (std::size_t s = 0; s < 2; ++s) {
        expect_bitwise_equal(ref[m][s], r.trajectories[m][s],
                             "clean batch-mate m" + std::to_string(m));
      }
    }
  });

  ForecastRequest req;
  req.init = make_init(2);
  req.forcings_at = always_nan;
  req.members = 1;
  req.steps = 2;
  req.seed = 7;
  const ForecastResult r = server.forecast(req);
  clean_client.join();

  ASSERT_EQ(r.status, RequestStatus::kNumericalError);
  ASSERT_TRUE(r.error != nullptr);
  EXPECT_THROW(std::rethrow_exception(r.error), NumericalError);
  ASSERT_EQ(r.members.size(), 1u);
  EXPECT_TRUE(r.members[0].quarantined);
  EXPECT_FALSE(r.members[0].ok);
  EXPECT_NE(r.members[0].message.find("non-finite"), std::string::npos);
  EXPECT_GE(server.stats().failed_members, 1);
}

// Transient faults (throwing forcing fn) retry with backoff and, once the
// fault clears, the result is still bitwise what the serial path produces.
TEST(ForecastServer, TransientFaultRetriesThenMatchesSerial) {
  AerisModel model = make_model(31);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 2;
  ParallelEnsembleEngine engine(model, tf, sc, 0);
  ServerOptions opts;
  opts.max_step_retries = 2;
  opts.retry_backoff_ms = 0.2;
  ForecastServer server(engine, opts);

  std::atomic<int> failures{0};
  const ForcingFn flaky = [&](std::int64_t s) {
    if (s == 1 && failures.fetch_add(1) == 0) {
      throw std::runtime_error("simulated store outage");
    }
    return make_forcing(s);
  };

  ForecastRequest req;
  req.init = make_init(4);
  req.forcings_at = flaky;
  req.steps = 2;
  req.seed = 55;
  const ForecastResult r = server.forecast(req);
  ASSERT_EQ(r.status, RequestStatus::kOk) << r.error_message;
  EXPECT_GE(r.transient_retries, 1);
  DiffusionForecaster serial(model, tf, sc, 55);
  const auto ref = serial.ensemble_rollout(make_init(4), make_forcing, 2, 1);
  for (std::size_t s = 0; s < 2; ++s) {
    expect_bitwise_equal(ref[0][s], r.trajectories[0][s], "after retry");
  }
}

TEST(ForecastServer, PersistentFaultFailsTyped) {
  AerisModel model = make_model(37);
  ParallelEnsembleEngine engine(model, core::TrigFlowConfig{},
                                core::TrigSamplerConfig{}, 0);
  ServerOptions opts;
  opts.max_step_retries = 1;
  opts.retry_backoff_ms = 0.2;
  ForecastServer server(engine, opts);

  ForecastRequest req;
  req.init = make_init(4);
  req.forcings_at = [](std::int64_t) -> Tensor {
    throw std::runtime_error("store is down");
  };
  const ForecastResult r = server.forecast(req);
  ASSERT_EQ(r.status, RequestStatus::kFault);
  EXPECT_NE(r.error_message.find("store is down"), std::string::npos);
  ASSERT_TRUE(r.error != nullptr);
  EXPECT_THROW(std::rethrow_exception(r.error), std::runtime_error);
  EXPECT_EQ(server.stats().faulted, 1);
}

// Forced degradation: fewer solver steps and a member cap, both reported,
// and the served members are bitwise the serial forecast at the degraded
// step count — degraded quality is still deterministic quality.
TEST(ForecastServer, DegradePolicyReducesWorkAndReportsIt) {
  AerisModel model = make_model(41);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 3;
  ParallelEnsembleEngine engine(model, tf, sc, 0);
  ServerOptions opts;
  opts.degrade.est_wait_threshold_ms = -1.0;  // force on every admission
  opts.degrade.degraded_solver_steps = 2;
  opts.degrade.max_members = 2;
  ForecastServer server(engine, opts);

  ForecastRequest req;
  req.init = make_init(6);
  req.forcings_at = make_forcing;
  req.members = 4;
  req.steps = 2;
  req.seed = 13;
  const ForecastResult r = server.forecast(req);
  ASSERT_EQ(r.status, RequestStatus::kOk) << r.error_message;
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.solver_steps, 2);
  EXPECT_EQ(r.members_served, 2);
  ASSERT_EQ(r.trajectories.size(), 2u);

  core::TrigSamplerConfig degraded_sc = sc;
  degraded_sc.steps = 2;
  DiffusionForecaster serial(model, tf, degraded_sc, 13);
  const auto ref = serial.ensemble_rollout(make_init(6), make_forcing, 2, 2);
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t s = 0; s < 2; ++s) {
      expect_bitwise_equal(ref[m][s], r.trajectories[m][s],
                           "degraded m" + std::to_string(m));
    }
  }
  EXPECT_EQ(server.stats().degraded, 1);
}

void expect_result_matches_serial(const ForecastResult& r,
                                  const AerisModel& model,
                                  const core::TrigFlowConfig& tf,
                                  core::TrigSamplerConfig sc,
                                  std::uint64_t seed, const Tensor& init,
                                  std::int64_t steps, std::int64_t members,
                                  const std::string& tag) {
  ASSERT_EQ(r.status, RequestStatus::kOk) << tag << ": " << r.error_message;
  ASSERT_EQ(static_cast<std::int64_t>(r.trajectories.size()), members) << tag;
  DiffusionForecaster serial(model, tf, sc, seed);
  const auto ref = serial.ensemble_rollout(init, make_forcing, steps, members);
  for (std::int64_t m = 0; m < members; ++m) {
    const auto& got = r.trajectories[static_cast<std::size_t>(m)];
    ASSERT_EQ(got.size(), ref[static_cast<std::size_t>(m)].size()) << tag;
    for (std::size_t s = 0; s < got.size(); ++s) {
      expect_bitwise_equal(ref[static_cast<std::size_t>(m)][s], got[s],
                           tag + " m" + std::to_string(m) + " s" +
                               std::to_string(s));
    }
  }
}

// A degradation flip arriving mid-load: the DegradePolicy cuts the solver
// step count for a request admitted under queue pressure, so the one
// worker runs full-resolution packs, then a degraded pack (a different t
// schedule), then full-resolution packs again. Every phase must stay
// bitwise against its serial reference.
TEST(ForecastServer, MidLoadDegradeFlipMatchesSerialBitwise) {
  AerisModel model = make_model(67);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 3;
  ParallelEnsembleEngine engine(model, tf, sc, 0);

  ServerOptions opts;
  opts.batch = 4;
  opts.workers = 1;  // one worker runs every phase
  // Any estimated wait degrades; the estimate is pending work x the EMA
  // step cost, so it is 0 (no degradation) until the queue actually backs
  // up behind a wedged request.
  opts.degrade.est_wait_threshold_ms = 1e-9;
  opts.degrade.degraded_solver_steps = 2;
  ForecastServer server(engine, opts);

  const std::int64_t steps = 2, members = 2;

  // Phase 1: idle server — full resolution, warms the step-cost EMA.
  ForecastRequest full;
  full.init = make_init(10);
  full.forcings_at = make_forcing;
  full.members = members;
  full.steps = steps;
  full.seed = 501;
  const ForecastResult warm = server.forecast(full);
  EXPECT_FALSE(warm.degraded);
  expect_result_matches_serial(warm, model, tf, sc, 501, make_init(10), steps,
                               members, "warmup");

  // Phase 2: wedge the worker on a gated forcing so the next admission
  // sees a backed-up queue and degrades deterministically.
  std::atomic<bool> release{false};
  const core::ForcingFn gated = [&](std::int64_t s) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return make_forcing(s);
  };
  ForecastResult wedged_result;
  std::thread wedged_client([&] {
    ForecastRequest wedge = full;
    wedge.seed = 502;
    wedge.forcings_at = gated;
    wedged_result = server.forecast(wedge);
  });
  while (server.stats().accepted < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ForecastResult degraded_result;
  std::thread degraded_client([&] {
    ForecastRequest d = full;
    d.seed = 503;
    degraded_result = server.forecast(d);
  });
  while (server.stats().degraded < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.store(true);
  wedged_client.join();
  degraded_client.join();

  EXPECT_FALSE(wedged_result.degraded);
  expect_result_matches_serial(wedged_result, model, tf, sc, 502,
                               make_init(10), steps, members, "wedged full");
  ASSERT_TRUE(degraded_result.degraded);
  EXPECT_EQ(degraded_result.solver_steps, 2);
  core::TrigSamplerConfig degraded_sc = sc;
  degraded_sc.steps = 2;
  expect_result_matches_serial(degraded_result, model, tf, degraded_sc, 503,
                               make_init(10), steps, members, "degraded");

  // Phase 3: idle again — back to full resolution on the same worker.
  ForecastRequest again = full;
  again.seed = 504;
  const ForecastResult rec = server.forecast(again);
  EXPECT_FALSE(rec.degraded);
  expect_result_matches_serial(rec, model, tf, sc, 504, make_init(10), steps,
                               members, "recovered");
}

// Shutdown drains: in-flight requests terminate with a typed shutdown
// rejection (never hang), and post-stop admissions are refused.
TEST(ForecastServer, StopTerminatesInFlightAndRejectsNewWork) {
  AerisModel model = make_model(43);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 2;
  ParallelEnsembleEngine engine(model, tf, sc, 0);
  ForecastServer server(engine, ServerOptions{});

  std::atomic<bool> release{false};
  const ForcingFn blocking = [&](std::int64_t s) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return make_forcing(s);
  };

  ForecastResult inflight;
  std::thread client([&] {
    ForecastRequest req;
    req.init = make_init(0);
    req.forcings_at = blocking;
    req.steps = 2;
    inflight = server.forecast(req);
  });
  while (server.stats().accepted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread stopper([&] { server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true);  // un-wedge the worker so stop() can join it
  stopper.join();
  client.join();

  ASSERT_EQ(inflight.status, RequestStatus::kRejected);
  ASSERT_TRUE(inflight.error != nullptr);
  try {
    std::rethrow_exception(inflight.error);
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kShutdown);
  }

  ForecastRequest late;
  late.init = make_init(0);
  late.forcings_at = make_forcing;
  const ForecastResult r = server.forecast(late);
  EXPECT_EQ(r.status, RequestStatus::kRejected);
}

TEST(ForecastServer, MalformedRequestsThrow) {
  AerisModel model = make_model(47);
  ParallelEnsembleEngine engine(model, core::TrigFlowConfig{},
                                core::TrigSamplerConfig{}, 0);
  ForecastServer server(engine, ServerOptions{});

  ForecastRequest bad_shape;
  bad_shape.init = Tensor({8, 8});
  bad_shape.forcings_at = make_forcing;
  EXPECT_THROW(server.forecast(bad_shape), std::invalid_argument);

  ForecastRequest no_fn;
  no_fn.init = make_init(0);
  EXPECT_THROW(server.forecast(no_fn), std::invalid_argument);

  ForecastRequest zero_members;
  zero_members.init = make_init(0);
  zero_members.forcings_at = make_forcing;
  zero_members.members = 0;
  EXPECT_THROW(server.forecast(zero_members), std::invalid_argument);
}

// Forcings of the wrong shape fault only their own request: they never
// ride into a healthy batch-mate's stacked solve. A gate request holds the
// single worker inside its first forcing fetch while a bad-F request and a
// healthy one queue behind it, so the next checkout sees both at once.
// A gate request blocks in its first forcing fetch while a request whose
// forcings have the wrong shape and a healthy 2-member request queue up
// behind it; all three then share packs. The healthy request must come
// out bitwise-equal to the serial forecaster, and the bad one must fault
// on its first fetch, whatever the retry budget: a wrong shape is not a
// transient fault.
void expect_wrong_shape_faults_alone(std::int64_t max_step_retries) {
  AerisModel model = make_model(53);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 2;
  ParallelEnsembleEngine engine(model, tf, sc, 0);
  ServerOptions opts;
  opts.workers = 1;
  opts.batch = 4;
  opts.max_step_retries = max_step_retries;
  ForecastServer server(engine, opts);

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  const ForcingFn gate_fn = [&](std::int64_t s) {
    entered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return make_forcing(s);
  };
  std::atomic<int> wrong_calls{0};
  const ForcingFn wrong_f = [&](std::int64_t) {
    ++wrong_calls;
    return Tensor({8, 8, 3});
  };
  const auto wait_accepted = [&](std::int64_t n) {
    while (server.stats().accepted < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  ForecastResult gate_r, bad_r, good_r;
  std::thread gate([&] {
    ForecastRequest req;
    req.init = make_init(1);
    req.forcings_at = gate_fn;
    gate_r = server.forecast(req);
  });
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread bad([&] {
    ForecastRequest req;
    req.init = make_init(2);
    req.forcings_at = wrong_f;
    bad_r = server.forecast(req);
  });
  wait_accepted(2);
  std::thread good([&] {
    ForecastRequest req;
    req.init = make_init(3);
    req.forcings_at = make_forcing;
    req.members = 2;
    req.steps = 2;
    req.seed = 61;
    good_r = server.forecast(req);
  });
  wait_accepted(3);
  release.store(true);
  gate.join();
  bad.join();
  good.join();

  EXPECT_EQ(gate_r.status, RequestStatus::kOk) << gate_r.error_message;
  ASSERT_EQ(good_r.status, RequestStatus::kOk) << good_r.error_message;
  DiffusionForecaster serial(model, tf, sc, 61);
  const auto ref = serial.ensemble_rollout(make_init(3), make_forcing, 2, 2);
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t s = 0; s < 2; ++s) {
      expect_bitwise_equal(ref[m][s], good_r.trajectories[m][s],
                           "healthy batch-mate");
    }
  }
  EXPECT_EQ(bad_r.status, RequestStatus::kFault);
  EXPECT_NE(bad_r.error_message.find("[8, 8, 3]"), std::string::npos)
      << bad_r.error_message;
  EXPECT_NE(bad_r.error_message.find("[8, 8, 2]"), std::string::npos)
      << bad_r.error_message;
  EXPECT_EQ(bad_r.error_message.find("transient"), std::string::npos)
      << bad_r.error_message;
  EXPECT_EQ(wrong_calls.load(), 1);
  EXPECT_EQ(server.stats().transient_retries, 0);
  EXPECT_EQ(server.stats().faulted, 1);
}

TEST(ForecastServer, WrongShapedForcingsFaultOnlyTheirOwnRequest) {
  // No retries: a failed shared solve would fault the healthy request on
  // its first attempt, with no backoff timing involved.
  expect_wrong_shape_faults_alone(0);
}

TEST(ForecastServer, WrongShapedForcingsFaultOnlyTheirOwnRequestWithRetries) {
  expect_wrong_shape_faults_alone(3);
}

TEST(ForecastServer, FromEnvReadsKnobs) {
  ::setenv("AERIS_SERVE_QUEUE_CAP", "7", 1);
  ::setenv("AERIS_SERVE_DEADLINE_MS", "125.5", 1);
  ::setenv("AERIS_SERVE_DEGRADE_WAIT_MS", "40", 1);
  ::setenv("AERIS_SERVE_DEGRADE_STEPS", "2", 1);
  ::setenv("AERIS_SERVE_DEGRADE_MEMBERS", "3", 1);
  const ServerOptions o = ServerOptions::from_env();
  EXPECT_EQ(o.queue_capacity, 7);
  EXPECT_DOUBLE_EQ(o.default_deadline_ms, 125.5);
  EXPECT_DOUBLE_EQ(o.degrade.est_wait_threshold_ms, 40.0);
  EXPECT_EQ(o.degrade.degraded_solver_steps, 2);
  EXPECT_EQ(o.degrade.max_members, 3);
  ::unsetenv("AERIS_SERVE_QUEUE_CAP");
  ::unsetenv("AERIS_SERVE_DEADLINE_MS");
  ::unsetenv("AERIS_SERVE_DEGRADE_WAIT_MS");
  ::unsetenv("AERIS_SERVE_DEGRADE_STEPS");
  ::unsetenv("AERIS_SERVE_DEGRADE_MEMBERS");

  // A value that does not parse in full is an error naming the knob, not
  // a silent prefix parse or a fall back to the default.
  for (const char* bad : {"10abc", "abc"}) {
    for (const char* knob :
         {"AERIS_SERVE_QUEUE_CAP", "AERIS_SERVE_DEADLINE_MS"}) {
      ::setenv(knob, bad, 1);
      try {
        (void)ServerOptions::from_env();
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

TEST(ForecastServer, FromEnvReadsRetryAndDegradeRungKnobs) {
  ::setenv("AERIS_SERVE_RETRY_CAP_MS", "80", 1);
  ::setenv("AERIS_SERVE_DEGRADE_FALLBACK_WAIT_MS", "15.5", 1);
  ::setenv("AERIS_SERVE_DEGRADE_TO_CONSISTENCY", "0", 1);
  ::setenv("AERIS_SERVE_DEGRADE_CUT_WAIT_MS", "90", 1);
  const ServerOptions o = ServerOptions::from_env();
  ::unsetenv("AERIS_SERVE_RETRY_CAP_MS");
  ::unsetenv("AERIS_SERVE_DEGRADE_FALLBACK_WAIT_MS");
  ::unsetenv("AERIS_SERVE_DEGRADE_TO_CONSISTENCY");
  ::unsetenv("AERIS_SERVE_DEGRADE_CUT_WAIT_MS");
  EXPECT_DOUBLE_EQ(o.max_retry_backoff_ms, 80.0);
  EXPECT_DOUBLE_EQ(o.degrade.fallback_wait_threshold_ms, 15.5);
  EXPECT_FALSE(o.degrade.to_consistency);
  EXPECT_DOUBLE_EQ(o.degrade.cut_wait_threshold_ms, 90.0);
}

// Unset knobs leave every field at its compiled-in default.
TEST(ForecastServer, FromEnvWithNothingSetKeepsDefaults) {
  for (const char* knob :
       {"AERIS_SERVE_QUEUE_CAP", "AERIS_SERVE_DEADLINE_MS",
        "AERIS_SERVE_RETRY_CAP_MS", "AERIS_SERVE_DEGRADE_FALLBACK_WAIT_MS",
        "AERIS_SERVE_DEGRADE_WAIT_MS", "AERIS_SERVE_DEGRADE_STEPS",
        "AERIS_SERVE_DEGRADE_MEMBERS", "AERIS_SERVE_DEGRADE_TO_CONSISTENCY",
        "AERIS_SERVE_DEGRADE_CUT_WAIT_MS"}) {
    ::unsetenv(knob);
  }
  const ServerOptions d;
  const ServerOptions o = ServerOptions::from_env();
  EXPECT_EQ(o.queue_capacity, d.queue_capacity);
  EXPECT_EQ(o.default_deadline_ms, d.default_deadline_ms);
  EXPECT_EQ(o.max_retry_backoff_ms, d.max_retry_backoff_ms);
  EXPECT_EQ(o.degrade.fallback_wait_threshold_ms,
            d.degrade.fallback_wait_threshold_ms);
  EXPECT_EQ(o.degrade.est_wait_threshold_ms, d.degrade.est_wait_threshold_ms);
  EXPECT_EQ(o.degrade.degraded_solver_steps, d.degrade.degraded_solver_steps);
  EXPECT_EQ(o.degrade.max_members, d.degrade.max_members);
  EXPECT_EQ(o.degrade.to_consistency, d.degrade.to_consistency);
  EXPECT_EQ(o.degrade.cut_wait_threshold_ms, d.degrade.cut_wait_threshold_ms);
}

// A broken ServerOptions invariant is refused, not clamped: both
// front-ends build their RequestLedger from it, and its constructor throws
// std::invalid_argument naming the field and the offending value.
void expect_rejected(const ServerOptions& so, const std::string& field,
                     const std::string& value) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine(model, core::TrigFlowConfig{},
                                core::TrigSamplerConfig{}, 0);
  const std::string named = "ServerOptions::" + field + " = " + value;
  try {
    ForecastServer server(engine, so);
    ADD_FAILURE() << named << " accepted by ForecastServer";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
        << e.what();
  }
  ClusterOptions co;
  co.serve = so;
  try {
    ClusterForecastServer cluster(engine, co);
    ADD_FAILURE() << named << " accepted by ClusterForecastServer";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
        << e.what();
  }
}

TEST(ServerOptions, QueueCapacityBelowOneThrows) {
  ServerOptions so;
  so.queue_capacity = 0;
  expect_rejected(so, "queue_capacity", "0");
}

TEST(ServerOptions, BatchBelowOneThrows) {
  ServerOptions so;
  so.batch = -3;
  expect_rejected(so, "batch", "-3");
}

TEST(ServerOptions, WorkersBelowOneThrows) {
  ServerOptions so;
  so.workers = 0;
  expect_rejected(so, "workers", "0");
}

TEST(ServerOptions, NegativeMaxStepRetriesThrows) {
  ServerOptions so;
  so.max_step_retries = -1;
  expect_rejected(so, "max_step_retries", "-1");
  // Zero retries is a valid policy: fail on the first fault.
  so.max_step_retries = 0;
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine(model, core::TrigFlowConfig{},
                                core::TrigSamplerConfig{}, 0);
  EXPECT_NO_THROW(ForecastServer(engine, so));
}

}  // namespace
}  // namespace aeris::serving
