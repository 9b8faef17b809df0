// Consistency distillation (ConsistencyDistiller) and the few-step
// student's forecaster/engine integration: determinism, teacher-init,
// numerical guards, serial<->batched bitwise parity, and the teacher
// path's invariance to an attached student.
#include "aeris/core/distill.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "aeris/core/ensemble.hpp"
#include "aeris/core/forecaster.hpp"
#include "aeris/tensor/numerics.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::core {
namespace {

constexpr std::int64_t kV = 2;  // predicted variables
constexpr std::int64_t kF = 1;  // forcing channels

ModelConfig tiny_cfg() {
  ModelConfig c;
  c.h = 8;
  c.w = 8;
  c.out_channels = kV;
  c.in_channels = 2 * kV + kF;
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

/// Teacher with non-trivial residual predictions: the zero-init head and
/// adaLN gates are kicked off zero, like the ensemble tests do.
AerisModel make_teacher(std::uint64_t seed) {
  AerisModel model(tiny_cfg(), seed);
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

TrainExample make_example(std::uint64_t idx) {
  const ModelConfig mc = tiny_cfg();
  Philox rng(123);
  TrainExample ex;
  ex.prev = Tensor({mc.h, mc.w, kV});
  rng.fill_normal(ex.prev, 1, idx);
  ex.target = Tensor({mc.h, mc.w, kV});
  for (std::int64_t r = 0; r < mc.h; ++r) {
    for (std::int64_t c = 0; c < mc.w; ++c) {
      for (std::int64_t v = 0; v < kV; ++v) {
        const std::int64_t src_c = (c + mc.w - 1) % mc.w;
        ex.target.at3(r, c, v) =
            ex.prev.at3(r, src_c, v) +
            0.1f * static_cast<float>(v + 1) / static_cast<float>(kV);
      }
    }
  }
  ex.forcings = Tensor({mc.h, mc.w, kF}, 0.5f);
  return ex;
}

DistillConfig fast_distill() {
  DistillConfig dc;
  dc.teacher.steps = 4;
  dc.schedule.peak = 2e-3f;
  dc.schedule.warmup = 4;
  dc.schedule.total = 1'000'000;
  dc.schedule.decay = 10;
  dc.ema_half_life = 32.0f;
  dc.seed = 5;
  return dc;
}

void expect_params_bitwise(const AerisModel& a, const AerisModel& b) {
  const nn::ConstParamList& pa = a.params();
  const nn::ConstParamList& pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                          static_cast<std::size_t>(pa[i]->value.numel()) *
                              sizeof(float)),
              0)
        << pa[i]->name;
  }
}

TEST(ConsistencyDistiller, StudentStartsAtTeacherWeights) {
  AerisModel teacher = make_teacher(21);
  AerisModel student(tiny_cfg(), 999);  // deliberately different init
  ConsistencyDistiller distiller(student, teacher, fast_distill());
  expect_params_bitwise(student, teacher);
  ASSERT_EQ(distiller.teacher_times().size(), 5u);  // steps=4 -> 5 times
  EXPECT_FLOAT_EQ(distiller.teacher_times().back(), 0.0f);
}

TEST(ConsistencyDistiller, LossDecreases) {
  AerisModel teacher = make_teacher(22);
  AerisModel student(tiny_cfg(), 22);
  ConsistencyDistiller distiller(student, teacher, fast_distill());

  std::vector<TrainExample> batch;
  for (std::uint64_t i = 0; i < 4; ++i) batch.push_back(make_example(i));

  // Per-step losses are noisy (each step draws new stage times), so
  // compare window averages rather than endpoints.
  std::vector<float> losses;
  for (int step = 0; step < 40; ++step) {
    const float loss = distiller.distill_step(batch);
    ASSERT_TRUE(std::isfinite(loss)) << "step " << step;
    losses.push_back(loss);
  }
  auto window_mean = [&](std::size_t lo, std::size_t hi) {
    float s = 0.0f;
    for (std::size_t i = lo; i < hi; ++i) s += losses[i];
    return s / static_cast<float>(hi - lo);
  };
  EXPECT_LT(window_mean(losses.size() - 8, losses.size()),
            window_mean(0, 8));
  EXPECT_EQ(distiller.images_seen(), 160);
}

TEST(ConsistencyDistiller, DeterministicAcrossRuns) {
  // Same seed + same batches => identical losses and identical student
  // weights (the counter-RNG draws are keyed by the global sample index
  // alone — the SWiPe shared-seed contract).
  std::vector<TrainExample> batch;
  for (std::uint64_t i = 0; i < 2; ++i) batch.push_back(make_example(i));

  auto run = [&](AerisModel& student) {
    AerisModel teacher = make_teacher(23);
    ConsistencyDistiller d(student, teacher, fast_distill());
    std::vector<float> losses;
    for (int step = 0; step < 5; ++step) losses.push_back(d.distill_step(batch));
    return losses;
  };
  AerisModel s1(tiny_cfg(), 1), s2(tiny_cfg(), 2);  // init overwritten anyway
  const auto l1 = run(s1);
  const auto l2 = run(s2);
  for (std::size_t i = 0; i < l1.size(); ++i) {
    EXPECT_EQ(l1[i], l2[i]) << "loss diverged at step " << i;
  }
  expect_params_bitwise(s1, s2);
}

TEST(ConsistencyDistiller, NonFiniteInputLeavesStateUntouched) {
  AerisModel teacher = make_teacher(24);
  AerisModel student(tiny_cfg(), 24);
  ConsistencyDistiller distiller(student, teacher, fast_distill());

  std::vector<TrainExample> good;
  good.push_back(make_example(0));
  distiller.distill_step(good);
  const std::vector<float> before = nn::flatten_values(student.params());
  const std::int64_t seen = distiller.images_seen();

  std::vector<TrainExample> bad;
  bad.push_back(make_example(1));
  bad[0].prev[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(distiller.distill_step(bad), NumericalError);
  EXPECT_EQ(distiller.images_seen(), seen);
  const std::vector<float> after = nn::flatten_values(student.params());
  ASSERT_EQ(std::memcmp(before.data(), after.data(),
                        before.size() * sizeof(float)),
            0);
}

// eval_loss keeps nothing: repeating it gives the same loss and leaves the
// student and the sample counter unchanged, also after distill steps have
// refreshed the EMA target.
TEST(ConsistencyDistiller, EvalLossIsPure) {
  AerisModel teacher = make_teacher(25);
  AerisModel student(tiny_cfg(), 25);
  ConsistencyDistiller distiller(student, teacher, fast_distill());
  std::vector<TrainExample> batch;
  for (std::uint64_t i = 0; i < 2; ++i) batch.push_back(make_example(i));

  const std::vector<float> weights = nn::flatten_values(student.params());
  const float l0 = distiller.eval_loss(batch);
  EXPECT_EQ(distiller.eval_loss(batch), l0);
  const std::vector<float> after_eval = nn::flatten_values(student.params());
  ASSERT_EQ(std::memcmp(weights.data(), after_eval.data(),
                        weights.size() * sizeof(float)),
            0);
  EXPECT_EQ(distiller.images_seen(), 0);

  for (int step = 0; step < 3; ++step) distiller.distill_step(batch);
  const float l1 = distiller.eval_loss(batch);
  EXPECT_EQ(distiller.eval_loss(batch), l1);
  EXPECT_EQ(distiller.images_seen(), 6);
}

TEST(ConsistencyDistiller, MismatchedTeacherThrows) {
  ModelConfig other = tiny_cfg();
  other.dim = 32;
  AerisModel teacher(other, 1);
  AerisModel student(tiny_cfg(), 1);
  EXPECT_THROW(ConsistencyDistiller(student, teacher, fast_distill()),
               std::invalid_argument);
}

// --- Forecaster / engine integration of the few-step student. ---

TEST(ConsistencyForecaster, FewStepForecastIsFiniteAndReproducible) {
  AerisModel student = make_teacher(31);  // any non-trivial weights
  TrigFlowConfig tf;
  ConsistencySamplerConfig cc;
  cc.steps = 2;
  DiffusionForecaster fc(student, tf, cc, /*seed=*/7);
  EXPECT_EQ(fc.sampler_kind(), SamplerKind::kConsistency);

  const ModelConfig mc = tiny_cfg();
  Tensor init({mc.h, mc.w, kV});
  Philox(3).fill_normal(init, 1, 0);
  Tensor forcings({mc.h, mc.w, kF}, 0.5f);

  Tensor a = fc.forecast_step(init, forcings, 0, 0);
  ASSERT_TRUE(tensor::all_finite(a));
  Tensor a2 = fc.forecast_step(init, forcings, 0, 0);
  ASSERT_EQ(std::memcmp(a.data(), a2.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0);
  Tensor b = fc.forecast_step(init, forcings, 1, 0);
  EXPECT_FALSE(a.allclose(b, 1e-4f));
}

TEST(ConsistencyEngine, MatchesSerialForecasterBitwiseAcrossBatchAndThreads) {
  AerisModel student = make_teacher(32);
  TrigFlowConfig tf;
  ConsistencySamplerConfig cc;
  cc.steps = 2;
  const std::uint64_t seed = 42;

  const ModelConfig mc = tiny_cfg();
  Tensor init({mc.h, mc.w, kV});
  Philox(4).fill_normal(init, 1, 0);
  Tensor forcings({mc.h, mc.w, kF}, 0.25f);
  ForcingFn forcings_at = [&](std::int64_t) { return forcings; };

  DiffusionForecaster serial(student, tf, cc, seed);
  const auto ref = serial.ensemble_rollout(init, forcings_at, 3, 4);

  ParallelEnsembleEngine engine(student, tf, cc, seed);
  EXPECT_EQ(engine.sampler_kind(), SamplerKind::kConsistency);
  EXPECT_TRUE(engine.has_consistency());
  EXPECT_EQ(engine.solver_steps(), 2);
  for (const auto& [batch, threads] :
       std::vector<std::pair<std::int64_t, int>>{{1, 1}, {2, 1}, {4, 2}}) {
    EnsembleOptions opts;
    opts.batch = batch;
    opts.threads = threads;
    const auto got = engine.ensemble_rollout(init, forcings_at, 3, 4, opts);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t m = 0; m < ref.size(); ++m) {
      ASSERT_EQ(got[m].size(), ref[m].size());
      for (std::size_t s = 0; s < ref[m].size(); ++s) {
        ASSERT_EQ(
            std::memcmp(got[m][s].data(), ref[m][s].data(),
                        static_cast<std::size_t>(ref[m][s].numel()) *
                            sizeof(float)),
            0)
            << "batch=" << batch << " threads=" << threads << " member=" << m
            << " step=" << s;
      }
    }
  }
}

TEST(ConsistencyEngine, AttachedStudentServesConsistencyPacks) {
  AerisModel teacher = make_teacher(33);
  AerisModel student = make_teacher(34);
  TrigFlowConfig tf;
  TrigSamplerConfig ts;
  ts.steps = 4;
  ConsistencySamplerConfig cc;
  cc.steps = 2;
  const std::uint64_t seed = 9;

  ParallelEnsembleEngine engine(teacher, tf, ts, seed);
  EXPECT_FALSE(engine.has_consistency());
  engine.set_consistency(&student, cc);
  ASSERT_TRUE(engine.has_consistency());
  EXPECT_EQ(engine.sampler_kind(), SamplerKind::kDpmSolver);  // default kept
  EXPECT_EQ(engine.solver_steps(SamplerKind::kConsistency), 2);

  const ModelConfig mc = tiny_cfg();
  Tensor init({mc.h, mc.w, kV});
  Philox(5).fill_normal(init, 1, 0);
  Tensor forcings({mc.h, mc.w, kF}, 0.1f);

  MemberSlot slot;
  slot.prev = &init;
  slot.forcings = &forcings;
  slot.noise = MemberKey{seed, 0};
  const auto got =
      engine.step_pack(std::span<const MemberSlot>(&slot, 1), 0,
                       SamplerKind::kConsistency);
  ASSERT_EQ(got.size(), 1u);

  // Bitwise equal to the serial student forecaster with the same key.
  DiffusionForecaster serial(student, tf, cc, seed);
  Tensor ref = serial.forecast_step(init, forcings, 0, 0);
  ASSERT_EQ(std::memcmp(got[0].data(), ref.data(),
                        static_cast<std::size_t>(ref.numel()) * sizeof(float)),
            0);

  // The teacher path is untouched by the attachment: default-kind packs
  // match an engine that never heard of the student.
  ParallelEnsembleEngine plain(teacher, tf, ts, seed);
  const auto t_with = engine.step_pack(std::span<const MemberSlot>(&slot, 1));
  const auto t_plain = plain.step_pack(std::span<const MemberSlot>(&slot, 1));
  ASSERT_EQ(std::memcmp(t_with[0].data(), t_plain[0].data(),
                        static_cast<std::size_t>(t_plain[0].numel()) *
                            sizeof(float)),
            0);
}

// On a consistency pack the solver-step override sets the number of
// student evaluations: every count matches the serial student forecaster
// configured with it.
TEST(ConsistencyEngine, EvaluationOverrideMatchesSerialAtThatCount) {
  AerisModel teacher = make_teacher(35);
  AerisModel student = make_teacher(36);
  TrigFlowConfig tf;
  TrigSamplerConfig ts;
  ts.steps = 3;
  ConsistencySamplerConfig cc;
  cc.steps = 2;
  const std::uint64_t seed = 13;
  ParallelEnsembleEngine engine(teacher, tf, ts, seed);
  engine.set_consistency(&student, cc);

  const ModelConfig mc = tiny_cfg();
  Tensor init({mc.h, mc.w, kV});
  Philox(6).fill_normal(init, 1, 0);
  Tensor forcings({mc.h, mc.w, kF}, 0.3f);
  std::vector<MemberSlot> pack(2);
  for (std::size_t m = 0; m < pack.size(); ++m) {
    pack[m].prev = &init;
    pack[m].forcings = &forcings;
    pack[m].noise = MemberKey{seed, m * 4096 + 1};
  }

  for (const int evals : {1, 2, 4}) {
    const auto got = engine.step_pack(pack, evals == cc.steps ? 0 : evals,
                                      SamplerKind::kConsistency);
    ASSERT_EQ(got.size(), pack.size());
    ConsistencySamplerConfig ck = cc;
    ck.steps = evals;
    const DiffusionForecaster serial(student, tf, ck, seed);
    for (std::size_t m = 0; m < pack.size(); ++m) {
      const Tensor ref = serial.forecast_step(init, forcings, m, 1);
      ASSERT_EQ(std::memcmp(got[m].data(), ref.data(),
                            static_cast<std::size_t>(ref.numel()) *
                                sizeof(float)),
                0)
          << "evals=" << evals << " member " << m;
    }
  }
}

TEST(ConsistencyEngine, ConsistencyPackWithoutStudentThrows) {
  AerisModel teacher = make_teacher(35);
  TrigFlowConfig tf;
  TrigSamplerConfig ts;
  ParallelEnsembleEngine engine(teacher, tf, ts, 1);

  const ModelConfig mc = tiny_cfg();
  Tensor init({mc.h, mc.w, kV}, 0.0f);
  Tensor forcings({mc.h, mc.w, kF}, 0.0f);
  MemberSlot slot;
  slot.prev = &init;
  slot.forcings = &forcings;
  slot.noise = MemberKey{1, 0};
  EXPECT_THROW(engine.step_pack(std::span<const MemberSlot>(&slot, 1), 0,
                                SamplerKind::kConsistency),
               std::invalid_argument);
}

TEST(SamplerKindEnv, DefaultsToDpmSolver) {
  // Not set in the test environment.
  EXPECT_EQ(sampler_kind_from_env(), SamplerKind::kDpmSolver);
}

// Only "consistency" names the student; a typo must fail naming the
// variable and the value instead of being served as the teacher.
TEST(SamplerKindEnv, UnknownValueThrowsNamingTheVariable) {
  ::setenv("AERIS_SAMPLER", "", 1);
  EXPECT_EQ(sampler_kind_from_env(), SamplerKind::kDpmSolver);
  for (const char* bad : {"consistancy", "dpm", "Consistency"}) {
    ::setenv("AERIS_SAMPLER", bad, 1);
    try {
      (void)sampler_kind_from_env();
      ADD_FAILURE() << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("AERIS_SAMPLER"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
  ::unsetenv("AERIS_SAMPLER");
}

TEST(SamplerKindEnv, ConsistencyFlipsEngineDefaultOnAttach) {
  // AERIS_SAMPLER=consistency makes an attached student the default path
  // for requests that don't name a sampler; the teacher ctor alone never
  // flips (there is no student to serve with).
  AerisModel teacher = make_teacher(3);
  AerisModel student = make_teacher(4);
  TrigFlowConfig tf;
  TrigSamplerConfig ts;
  ConsistencySamplerConfig cc;

  ::setenv("AERIS_SAMPLER", "consistency", 1);
  ParallelEnsembleEngine engine(teacher, tf, ts, 0);
  EXPECT_EQ(engine.sampler_kind(), SamplerKind::kDpmSolver);
  engine.set_consistency(&student, cc);
  EXPECT_EQ(engine.sampler_kind(), SamplerKind::kConsistency);
  ::unsetenv("AERIS_SAMPLER");

  ParallelEnsembleEngine plain(teacher, tf, ts, 0);
  plain.set_consistency(&student, cc);
  EXPECT_EQ(plain.sampler_kind(), SamplerKind::kDpmSolver);
}

}  // namespace
}  // namespace aeris::core
