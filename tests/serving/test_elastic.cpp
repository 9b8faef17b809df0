// Elastic cluster membership: the HeartbeatMonitor's watch/probation
// lifecycle, registry fingerprints, stacked (latched) FaultPlan kills,
// park -> rejoin -> un-park with the bitwise guarantee intact, fresh-rank
// growth past the initial world size, and the randomized park/un-park
// chaos soak the sanitizer legs run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aeris/core/forecaster.hpp"
#include "aeris/serving/cluster.hpp"
#include "aeris/serving/registry.hpp"
#include "aeris/serving/server.hpp"
#include "aeris/swipe/fault.hpp"
#include "aeris/serving/health.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::serving {
namespace {

using core::AerisModel;
using core::ModelConfig;
using core::ParallelEnsembleEngine;

ModelConfig el_cfg() {
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
  AerisModel model(el_cfg(), seed);
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

ParallelEnsembleEngine make_engine(const AerisModel& model) {
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 3;
  sc.churn = 0.5f;
  return ParallelEnsembleEngine(model, tf, sc, 0);
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
  ASSERT_EQ(a.status, RequestStatus::kOk) << a.error_message;
  ASSERT_EQ(b.status, RequestStatus::kOk) << b.error_message;
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

template <typename Pred>
bool wait_until(Pred pred, double timeout_ms = 20000.0) {
  const auto t0 = std::chrono::steady_clock::now();
  while (!pred()) {
    if (std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count() > timeout_ms) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// ---------------------------------------------------------------------------
// HeartbeatMonitor membership states (injected time; fully deterministic)

TEST(HeartbeatMonitor, UnwatchedRankIsExemptFromBothDetectors) {
  using Clock = HeartbeatMonitor::Clock;
  const Clock::time_point t0 = Clock::now();
  HeartbeatMonitor m(2, /*heartbeat_timeout_ms=*/50.0,
                            /*lease_timeout_ms=*/0.0, t0);
  m.unwatch(1);
  EXPECT_FALSE(m.watched(1));
  EXPECT_TRUE(m.watched(0));
  m.beat(0, t0 + std::chrono::seconds(10));
  // Rank 1 has been silent for 10s — a watched rank would be expired.
  EXPECT_EQ(m.expired(t0 + std::chrono::seconds(10)), -1);

  // Re-watching resets the beat clock: parked silence is not retroactive.
  m.watch(1, t0 + std::chrono::seconds(10));
  EXPECT_EQ(m.expired(t0 + std::chrono::milliseconds(10040)), -1);
  m.beat(0, t0 + std::chrono::milliseconds(10100));
  EXPECT_EQ(m.expired(t0 + std::chrono::milliseconds(10100)), 1)
      << "a re-watched rank is subject to the detectors again";
}

TEST(HeartbeatMonitor, ProbationClearsOnlyAfterCleanWindow) {
  using Clock = HeartbeatMonitor::Clock;
  using std::chrono::milliseconds;
  const Clock::time_point t0 = Clock::now();
  HeartbeatMonitor m(2, /*heartbeat_timeout_ms=*/50.0,
                            /*lease_timeout_ms=*/100.0, t0);
  m.begin_probation(0, t0);
  EXPECT_TRUE(m.on_probation(0));
  EXPECT_TRUE(m.watched(0));

  // Window not yet elapsed.
  EXPECT_EQ(m.probation_cleared(t0 + milliseconds(80), 100.0), -1);
  // Window elapsed but the probationer went silent (last beat at t0).
  EXPECT_EQ(m.probation_cleared(t0 + milliseconds(120), 100.0), -1);
  // Fresh beat at evaluation time: cleared.
  m.beat(0, t0 + milliseconds(110));
  EXPECT_EQ(m.probation_cleared(t0 + milliseconds(120), 100.0), 0);

  // Promotion is watch(): a full member, off probation, still watched.
  m.watch(0, t0 + milliseconds(120));
  EXPECT_FALSE(m.on_probation(0));
  EXPECT_TRUE(m.watched(0));
}

TEST(HeartbeatMonitor, SilentProbationerExpiresEvenWithLeaseDetectorOn) {
  // Probationers hold no leases, so the lease-gated heartbeat branch used
  // to shield them; silence during vetting must still condemn.
  using Clock = HeartbeatMonitor::Clock;
  const Clock::time_point t0 = Clock::now();
  HeartbeatMonitor m(2, /*heartbeat_timeout_ms=*/50.0,
                            /*lease_timeout_ms=*/100.0, t0);
  m.begin_probation(1, t0);
  // Rank 0 (a full member, no lease, stale beat) is shielded by the
  // lease-gated branch; the silent probationer rank 1 is not.
  EXPECT_EQ(m.expired(t0 + std::chrono::milliseconds(80)), 1)
      << "silent probationer must be named";
  m.beat(1, t0 + std::chrono::milliseconds(80));
  EXPECT_EQ(m.expired(t0 + std::chrono::milliseconds(100)), -1);
}

// ---------------------------------------------------------------------------
// Registry fingerprints

TEST(ModelRegistry, FingerprintIsStableAndSensitive) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ModelRegistry a, b;
  a.add("default", engine, 1);
  b.add("default", engine, 1);
  EXPECT_NE(a.fingerprint(), 0u);
  EXPECT_EQ(a.fingerprint(), b.fingerprint())
      << "identical registries must agree";
  EXPECT_EQ(a.fingerprint(), a.fingerprint()) << "must be deterministic";

  ModelRegistry renamed;
  renamed.add("other", engine, 1);
  EXPECT_NE(renamed.fingerprint(), a.fingerprint());

  ModelRegistry retiered;
  retiered.add("default", engine, 0);
  EXPECT_NE(retiered.fingerprint(), a.fingerprint());

  AerisModel model2 = make_model(12);
  ParallelEnsembleEngine engine2 = make_engine(model2);
  ModelRegistry two;
  two.add("default", engine, 1);
  two.add("preview", engine2, 0);
  EXPECT_NE(two.fingerprint(), a.fingerprint());

  // A fallback edge is part of the routing surface: it must change the
  // digest even with the same variant set.
  const std::uint64_t before = two.fingerprint();
  two.set_fallback("default", "preview");
  EXPECT_NE(two.fingerprint(), before);
}

// ---------------------------------------------------------------------------
// Stacked kills (FaultEvent::latch)

// Two plain exact kills, one per worker, both at each rank's send 0: the
// fault hook now runs before the poison check, so the second rank's
// scheduled death fires even though the first death already poisoned the
// world — no die_on_first_pack rendezvous needed. Both deaths land in the
// same incarnation window, both are counted, and the request still
// completes bitwise on the survivor.
TEST(ElasticCluster, TwoExactKillsBothFireWithoutRendezvous) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ForecastResult single;
  {
    ForecastServer server(engine, ServerOptions{});
    single = server.forecast(make_request(31, 4, 3));
  }

  ClusterOptions co;
  co.ranks = 4;  // three workers; two die on their first result send
  co.serve.batch = 2;
  auto plan = std::make_shared<swipe::FaultPlan>();
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 1, 0});
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 2, 0});
  co.fault_plan = plan;
  ClusterForecastServer cluster(engine, co);

  const ForecastResult got = cluster.forecast(make_request(31, 4, 3));
  expect_bitwise_equal(got, single);

  EXPECT_EQ(cluster.alive_workers(), 1);
  const ServerStats st = cluster.stats();
  EXPECT_EQ(st.workers_lost, 2);
  EXPECT_GT(st.requeued_member_steps, 0);
  EXPECT_EQ(st.member_steps, 4 * 3);  // exactly-once: no double commits
  EXPECT_EQ(st.completed, 1);
}

// Ordering drill for the latch itself: rank 2's kill sits at an ordinal it
// will never reach, so only the latch can fire it — on rank 2's first
// send after rank 1's death poisons the world (a heartbeat; heartbeats
// give every rank a send stream independent of pack traffic).
TEST(ElasticCluster, LatchedKillFiresAfterAnotherRanksDeath) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ForecastResult single;
  {
    ForecastServer server(engine, ServerOptions{});
    single = server.forecast(make_request(33, 2, 2));
  }

  ClusterOptions co;
  co.ranks = 4;
  co.serve.batch = 2;
  co.heartbeat_interval_ms = 5.0;  // no timeouts armed: sends only
  auto plan = std::make_shared<swipe::FaultPlan>();
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 1, 0});
  swipe::FaultEvent latched;
  latched.kind = swipe::FaultKind::kKillRank;
  latched.rank = 2;
  latched.nth_send = 1000000;  // unreachable: only the latch can fire it
  latched.latch = true;
  plan->add(latched);
  co.fault_plan = plan;
  ClusterForecastServer cluster(engine, co);

  // Both deaths are send-driven (heartbeats), so they land without any
  // request in flight; wait for the membership to settle, then serve.
  ASSERT_TRUE(wait_until([&] { return cluster.stats().workers_lost == 2; }))
      << "latched kill did not fire after the poison";
  EXPECT_EQ(cluster.alive_workers(), 1);

  const ForecastResult got = cluster.forecast(make_request(33, 2, 2));
  expect_bitwise_equal(got, single);
  EXPECT_EQ(cluster.stats().workers_lost, 2);
}

// ---------------------------------------------------------------------------
// Park -> rejoin -> un-park (the tentpole) + the scripted stats drill

// The whole elastic story on one scripted timeline, with every new counter
// cross-checked: quorum loss drains typed -> refusals while parked -> a
// fingerprint-skewed offer is rejected (and only counted) -> a good offer
// admits, un-parks, and the post-recovery request is bitwise-identical to
// single-process serving.
TEST(ElasticCluster, ParkRejoinUnparkCompletesBitwise) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ForecastResult single;
  {
    ForecastServer server(engine, ServerOptions{});
    single = server.forecast(make_request(7, 2, 2));
  }

  ClusterOptions co;
  co.ranks = 2;  // a single worker
  co.min_quorum = 1;
  co.rejoin = true;
  co.serve.batch = 2;
  auto plan = std::make_shared<swipe::FaultPlan>();
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 1, 0});
  co.fault_plan = plan;
  ClusterForecastServer cluster(engine, co);
  const std::uint64_t inc0 = cluster.incarnation();

  // 1. Quorum loss: the in-flight request drains with the typed error.
  const ForecastResult r1 = cluster.forecast(make_request(7, 2, 2));
  EXPECT_EQ(r1.status, RequestStatus::kWorkerLost);
  ASSERT_NE(r1.error, nullptr);
  EXPECT_THROW(std::rethrow_exception(r1.error), WorkerLostError);
  EXPECT_NE(r1.error_message.find("quorum"), std::string::npos);
  EXPECT_TRUE(cluster.parked());

  // 2. Parked: admissions are refused with the same typed error.
  const ForecastResult r2 = cluster.forecast(make_request(8, 1, 1));
  EXPECT_EQ(r2.status, RequestStatus::kWorkerLost);
  ASSERT_NE(r2.error, nullptr);
  EXPECT_THROW(std::rethrow_exception(r2.error), WorkerLostError);

  // 3. A joiner announcing the wrong registry fingerprint is refused
  //    before it is ever leased work; the cluster stays parked.
  ASSERT_TRUE(cluster.offer_worker(/*announced_fingerprint=*/0xBADC0DEull));
  ASSERT_TRUE(wait_until(
      [&] { return cluster.stats().registry_fingerprint_rejects == 1; }))
      << "fingerprint mismatch was not rejected";
  EXPECT_TRUE(cluster.parked());
  EXPECT_EQ(cluster.alive_workers(), 0);

  // 4. A matching joiner admits, membership reaches quorum, the park
  //    lifts, and serving resumes — bitwise.
  ASSERT_TRUE(cluster.offer_worker());
  ASSERT_TRUE(wait_until([&] { return !cluster.parked(); }))
      << "cluster did not un-park after membership recovered";
  EXPECT_EQ(cluster.alive_workers(), 1);
  // Recovered capacity re-admits under a fresh incarnation.
  EXPECT_GT(cluster.incarnation(), inc0);

  const ForecastResult r3 = cluster.forecast(make_request(7, 2, 2));
  expect_bitwise_equal(r3, single);

  // 5. Counter cross-check against the script above.
  const ServerStats st = cluster.stats();
  EXPECT_EQ(st.workers_lost, 1);
  EXPECT_EQ(st.quorum_drains, 1);
  EXPECT_EQ(st.workers_joined, 1);
  EXPECT_EQ(st.unparks, 1);
  EXPECT_EQ(st.registry_fingerprint_rejects, 1);
  EXPECT_EQ(st.completed, 1);
  // The drained and the refused request both terminated typed; nothing
  // was resurrected by the un-park.
  EXPECT_EQ(st.accepted, 2);  // the drained one + the completed one
  EXPECT_EQ(st.rejected, 1);  // the parked refusal
}

// Fresh-rank admission: with max_ranks above the initial world size, an
// offer grows the cluster mid-flight without any death — and serving
// stays bitwise before, during, and after the growth.
TEST(ElasticCluster, FreshRankGrowsClusterBitwise) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ForecastResult single_a, single_b;
  {
    ForecastServer server(engine, ServerOptions{});
    single_a = server.forecast(make_request(41, 3, 2));
    single_b = server.forecast(make_request(42, 3, 2));
  }

  ClusterOptions co;
  co.ranks = 2;
  co.rejoin = true;
  co.max_ranks = 3;  // one spare slot for growth
  co.serve.batch = 2;
  ClusterForecastServer cluster(engine, co);

  const ForecastResult before = cluster.forecast(make_request(41, 3, 2));
  expect_bitwise_equal(before, single_a);
  EXPECT_EQ(cluster.alive_workers(), 1);

  ASSERT_TRUE(cluster.offer_worker());
  ASSERT_TRUE(wait_until([&] { return cluster.alive_workers() == 2; }))
      << "fresh rank was not admitted";
  // Growth happened in-place: no death, no re-formation.
  EXPECT_EQ(cluster.incarnation(), 1u);
  EXPECT_EQ(cluster.stats().workers_joined, 1);
  EXPECT_EQ(cluster.stats().workers_lost, 0);

  // At capacity now: further offers are refused.
  EXPECT_FALSE(cluster.offer_worker());

  const ForecastResult after = cluster.forecast(make_request(42, 3, 2));
  expect_bitwise_equal(after, single_b);
}

// offer_worker is a no-op without the elastic mode.
TEST(ElasticCluster, OfferIsRefusedWhenRejoinIsOff) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);
  ClusterOptions co;
  co.ranks = 2;
  ClusterForecastServer cluster(engine, co);
  EXPECT_FALSE(cluster.offer_worker());
  EXPECT_FALSE(cluster.parked());
}

// Probation: an admitted joiner is not leased work (and the park is not
// lifted) until its probation window has elapsed.
TEST(ElasticCluster, ProbationDelaysUnpark) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ForecastResult single;
  {
    ForecastServer server(engine, ServerOptions{});
    single = server.forecast(make_request(51, 2, 2));
  }

  ClusterOptions co;
  co.ranks = 2;
  co.min_quorum = 1;
  co.rejoin = true;
  co.probation_ms = 150.0;
  co.serve.batch = 2;
  auto plan = std::make_shared<swipe::FaultPlan>();
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 1, 0});
  co.fault_plan = plan;
  ClusterForecastServer cluster(engine, co);

  const ForecastResult drained = cluster.forecast(make_request(51, 2, 2));
  EXPECT_EQ(drained.status, RequestStatus::kWorkerLost);
  EXPECT_TRUE(cluster.parked());

  const auto offered_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(cluster.offer_worker());
  ASSERT_TRUE(wait_until([&] { return !cluster.parked(); }));
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - offered_at)
          .count();
  EXPECT_GE(waited_ms, co.probation_ms)
      << "joiner was admitted before its probation window elapsed";
  EXPECT_EQ(cluster.stats().workers_joined, 1);
  EXPECT_EQ(cluster.stats().unparks, 1);

  const ForecastResult got = cluster.forecast(make_request(51, 2, 2));
  expect_bitwise_equal(got, single);
}

// ---------------------------------------------------------------------------
// Randomized park/un-park chaos soak (the sanitizer legs run this suite)

// Concurrent clients against a cluster that falls below quorum mid-load,
// with a rejoiner thread racing offer_worker against the collapse. Every
// request must terminate typed (drained kWorkerLost, refused, or served),
// and once membership recovers a fresh request must complete bitwise —
// the park/rejoin cycle must not perturb the member-keyed noise contract.
TEST(ElasticCluster, ChaosParkUnparkSoakEveryRequestTerminates) {
  AerisModel model = make_model(11);
  ParallelEnsembleEngine engine = make_engine(model);

  ForecastResult single;
  {
    ForecastServer server(engine, ServerOptions{});
    single = server.forecast(make_request(999, 2, 2));
  }

  ClusterOptions co;
  co.ranks = 3;
  co.min_quorum = 2;  // any death parks the cluster
  co.rejoin = true;
  co.serve.batch = 2;
  auto plan = std::make_shared<swipe::FaultPlan>();
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 1, 1});
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 2, 3});
  co.fault_plan = plan;
  ClusterForecastServer cluster(engine, co);

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 3;
  std::atomic<int> terminated{0};
  std::atomic<int> malformed{0};
  std::atomic<bool> clients_done{false};

  // The rejoiner races membership recovery against the chaos: whenever the
  // cluster parks, it offers replacement capacity.
  std::thread rejoiner([&] {
    while (!clients_done.load(std::memory_order_relaxed)) {
      if (cluster.parked()) (void)cluster.offer_worker();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < kRequestsPerClient; ++k) {
        const ForecastResult r = cluster.forecast(make_request(
            static_cast<std::uint64_t>(500 + c * 10 + k), 2, 2));
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
  clients_done.store(true, std::memory_order_relaxed);
  rejoiner.join();

  EXPECT_EQ(terminated.load(), kClients * kRequestsPerClient)
      << "a request hung or was dropped";
  EXPECT_EQ(malformed.load(), 0);

  // Recovery: keep offering until the park lifts, then prove the bitwise
  // contract survived the whole park -> rejoin -> un-park cycle.
  ASSERT_TRUE(wait_until([&] {
    if (cluster.parked()) (void)cluster.offer_worker();
    return !cluster.parked();
  })) << "cluster never recovered to quorum";
  const ForecastResult after = cluster.forecast(make_request(999, 2, 2));
  expect_bitwise_equal(after, single);

  cluster.stop();
  const ServerStats st = cluster.stats();
  // +1 for the post-recovery request.
  EXPECT_EQ(st.accepted + st.rejected, kClients * kRequestsPerClient + 1);
  EXPECT_GE(st.workers_lost, 1);
  EXPECT_GE(st.quorum_drains, 1);
  EXPECT_GE(st.workers_joined, 1);
  EXPECT_GE(st.unparks, 1);
  EXPECT_GT(st.member_steps, 0);
}

}  // namespace
}  // namespace aeris::serving
