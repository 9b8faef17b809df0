#include "aeris/core/ensemble.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "aeris/tensor/ops.hpp"
#include "aeris/tensor/thread_pool.hpp"

namespace aeris::core {
namespace {

ModelConfig ens_cfg() {
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

/// A model whose residual prediction is non-trivial: the zero-init head
/// and adaLN gates are kicked off zero so trajectories actually move.
AerisModel make_model(std::uint64_t seed) {
  AerisModel model(ens_cfg(), seed);
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

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

void expect_trajectories_bitwise_equal(
    const std::vector<std::vector<Tensor>>& ref,
    const std::vector<std::vector<Tensor>>& got, const std::string& what) {
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t m = 0; m < ref.size(); ++m) {
    ASSERT_EQ(got[m].size(), ref[m].size()) << what << " member " << m;
    for (std::size_t s = 0; s < ref[m].size(); ++s) {
      expect_bitwise_equal(ref[m][s], got[m][s],
                           what + " member " + std::to_string(m) + " step " +
                               std::to_string(s));
    }
  }
}

// The determinism contract (DESIGN.md "Reentrant forward & ensemble
// engine"): every (batch, threads) combination of ParallelEnsembleEngine
// returns trajectories bitwise-identical to the serial DiffusionForecaster
// with the same model/configs/seed.
TEST(ParallelEnsemble, TrigFlowMatchesSerialBitwiseAcrossBatchAndThreads) {
  AerisModel model = make_model(11);
  TrigFlowConfig tf;
  TrigSamplerConfig sc;
  sc.steps = 3;
  sc.churn = 0.5f;  // exercises the churn noise streams too
  const std::uint64_t seed = 42;
  const std::int64_t steps = 2, members = 5;

  Philox frng(5);
  Tensor init({8, 8, 3});
  frng.fill_normal(init, 1, 0);
  std::vector<Tensor> forcing_seq;
  for (std::int64_t s = 0; s < steps; ++s) {
    Tensor f({8, 8, 2});
    frng.fill_normal(f, 2, static_cast<std::uint64_t>(s));
    forcing_seq.push_back(f);
  }
  ForcingFn forcings = [&](std::int64_t s) {
    return forcing_seq[static_cast<std::size_t>(s)];
  };

  DiffusionForecaster serial(model, tf, sc, seed);
  const auto ref = serial.ensemble_rollout(init, forcings, steps, members);

  ParallelEnsembleEngine engine(model, tf, sc, seed);
  for (const std::int64_t batch : {1, 2, 4}) {
    for (const int threads : {1, 2, 4}) {
      EnsembleOptions opts;
      opts.batch = batch;
      opts.threads = threads;
      const auto got =
          engine.ensemble_rollout(init, forcings, steps, members, opts);
      expect_trajectories_bitwise_equal(
          ref, got,
          "trigflow b" + std::to_string(batch) + " t" +
              std::to_string(threads));
    }
  }
}

TEST(ParallelEnsemble, EdmMatchesSerialBitwiseAcrossBatchAndThreads) {
  AerisModel model = make_model(13);
  EdmConfig edm;
  EdmSamplerConfig sc;
  sc.steps = 3;
  const std::uint64_t seed = 77;
  const std::int64_t steps = 2, members = 4;

  Philox frng(6);
  Tensor init({8, 8, 3});
  frng.fill_normal(init, 1, 0);
  Tensor forcing({8, 8, 2});
  frng.fill_normal(forcing, 2, 0);
  ForcingFn forcings = [&](std::int64_t) { return forcing; };

  DiffusionForecaster serial(model, edm, sc, seed);
  const auto ref = serial.ensemble_rollout(init, forcings, steps, members);

  ParallelEnsembleEngine engine(model, edm, sc, seed);
  for (const std::int64_t batch : {1, 3}) {
    for (const int threads : {1, 4}) {
      EnsembleOptions opts;
      opts.batch = batch;
      opts.threads = threads;
      const auto got =
          engine.ensemble_rollout(init, forcings, steps, members, opts);
      expect_trajectories_bitwise_equal(
          ref, got,
          "edm b" + std::to_string(batch) + " t" + std::to_string(threads));
    }
  }
}

TEST(ParallelEnsemble, ValidatesInit) {
  AerisModel model = make_model(15);
  ParallelEnsembleEngine engine(model, TrigFlowConfig{}, TrigSamplerConfig{},
                                1);
  ForcingFn forcings = [](std::int64_t) { return Tensor({8, 8, 2}); };
  EXPECT_THROW(engine.ensemble_rollout(Tensor({8, 8}), forcings, 1, 2),
               std::invalid_argument);
  EXPECT_TRUE(engine.ensemble_rollout(Tensor({8, 8, 3}), forcings, 1, 0)
                  .empty());
}

// Concurrent inference against ONE shared read-only model: each thread
// drives its own forward passes (inline kernels via SerialRegionGuard) and
// must reproduce the single-threaded result exactly. This is the test
// ci_sanitize.sh runs under TSan to pin the no-shared-mutable-state claim
// of the reentrant forward refactor.
TEST(ParallelEnsemble, ConcurrentSharedModelInferenceIsRaceFreeAndExact) {
  AerisModel model = make_model(17);
  Philox rng(9);
  Tensor x({1, 8, 8, 8});
  rng.fill_normal(x, 1, 0);
  const Tensor t = Tensor::from({0.4f});

  const Tensor ref = model.forward(x, t);

  constexpr int kThreads = 4;
  constexpr int kRepeats = 8;
  std::vector<Tensor> results(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&, i] {
      SerialRegionGuard serial;
      Tensor y;
      for (int r = 0; r < kRepeats; ++r) y = model.forward(x, t);
      results[static_cast<std::size_t>(i)] = y;
    });
  }
  for (auto& th : pool) th.join();
  for (int i = 0; i < kThreads; ++i) {
    expect_bitwise_equal(ref, results[static_cast<std::size_t>(i)],
                         "thread " + std::to_string(i));
  }
}

// A pack mixing request seeds, members and autoregressive steps, run with
// a solver-step override: every slot equals the serial forecaster
// configured with that step count, and the engine's own count is used
// again once the override is dropped.
TEST(ParallelEnsemble, StepPackSolverOverrideMatchesSerialAtThatStepCount) {
  AerisModel model = make_model(19);
  TrigFlowConfig tf;
  TrigSamplerConfig sc;
  sc.steps = 3;
  sc.churn = 0.5f;
  ParallelEnsembleEngine engine(model, tf, sc, 0);

  Philox rng(10);
  Tensor prev_a({8, 8, 3}), prev_b({8, 8, 3}), forcing({8, 8, 2});
  rng.fill_normal(prev_a, 1, 0);
  rng.fill_normal(prev_b, 1, 1);
  rng.fill_normal(forcing, 2, 0);
  struct Slot {
    const Tensor* prev;
    std::uint64_t seed, member;
    std::int64_t step;
  };
  const Slot slots[] = {{&prev_a, 99, 0, 0},
                        {&prev_b, 7, 1, 3},
                        {&prev_a, 99, 2, 1}};
  std::vector<MemberSlot> pack;
  for (const Slot& s : slots) {
    pack.push_back(MemberSlot{
        s.prev, &forcing,
        MemberKey{s.seed, s.member * 4096 + static_cast<std::uint64_t>(s.step)}});
  }

  for (const int steps : {3, 2, 1, 3}) {
    const auto got = engine.step_pack(pack, steps == sc.steps ? 0 : steps);
    ASSERT_EQ(got.size(), pack.size());
    TrigSamplerConfig sk = sc;
    sk.steps = steps;
    for (std::size_t i = 0; i < pack.size(); ++i) {
      const DiffusionForecaster serial(model, tf, sk, slots[i].seed);
      expect_bitwise_equal(
          serial.forecast_step(*slots[i].prev, forcing, slots[i].member,
                               slots[i].step),
          got[i], "steps " + std::to_string(steps) + " slot " +
                      std::to_string(i));
    }
  }
}

TEST(ParallelEnsemble, EdmStepPackSolverOverrideMatchesSerialAtThatStepCount) {
  AerisModel model = make_model(21);
  EdmConfig edm;
  EdmSamplerConfig sc;
  sc.steps = 3;
  ParallelEnsembleEngine engine(model, edm, sc, 0);

  Philox rng(12);
  Tensor prev({8, 8, 3}), forcing({8, 8, 2});
  rng.fill_normal(prev, 1, 0);
  rng.fill_normal(forcing, 2, 0);
  const std::uint64_t seeds[] = {31, 32};
  std::vector<MemberSlot> pack;
  for (const std::uint64_t seed : seeds) {
    pack.push_back(MemberSlot{&prev, &forcing, MemberKey{seed, 4096 + 2}});
  }

  for (const int steps : {2, 3}) {
    const auto got = engine.step_pack(pack, steps == sc.steps ? 0 : steps);
    ASSERT_EQ(got.size(), pack.size());
    EdmSamplerConfig sk = sc;
    sk.steps = steps;
    for (std::size_t i = 0; i < pack.size(); ++i) {
      const DiffusionForecaster serial(model, edm, sk, seeds[i]);
      expect_bitwise_equal(serial.forecast_step(prev, forcing, 1, 2), got[i],
                           "edm steps " + std::to_string(steps) + " slot " +
                               std::to_string(i));
    }
  }
}

// forecast_step is const end to end: concurrent calls on one forecaster
// give the bits of the same calls made one after another.
TEST(DiffusionForecaster, ConcurrentForecastStepsMatchSequentialBitwise) {
  AerisModel model = make_model(23);
  TrigFlowConfig tf;
  TrigSamplerConfig sc;
  sc.steps = 2;
  const DiffusionForecaster forecaster(model, tf, sc, 5);
  Philox rng(11);
  Tensor prev({8, 8, 3}), forcing({8, 8, 2});
  rng.fill_normal(prev, 1, 0);
  rng.fill_normal(forcing, 2, 0);

  constexpr int kThreads = 4;
  std::vector<Tensor> ref;
  for (int i = 0; i < kThreads; ++i) {
    ref.push_back(forecaster.forecast_step(
        prev, forcing, static_cast<std::uint64_t>(i), i));
  }
  std::vector<Tensor> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      SerialRegionGuard serial;
      got[static_cast<std::size_t>(i)] = forecaster.forecast_step(
          prev, forcing, static_cast<std::uint64_t>(i), i);
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    expect_bitwise_equal(ref[static_cast<std::size_t>(i)],
                         got[static_cast<std::size_t>(i)],
                         "thread " + std::to_string(i));
  }
}

}  // namespace
}  // namespace aeris::core
