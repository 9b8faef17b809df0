// Model registry & multi-variant serving: routing semantics (names,
// quality classes, env overlay), shared-backbone weight ownership, the
// cross-model DegradePolicy rung (including cross-grid coarsening), pack
// purity across a mixed-variant load, per-model stats accounting, and
// bitwise parity of every pinned variant with a single-model server.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "aeris/core/distill.hpp"
#include "aeris/core/forecaster.hpp"
#include "aeris/serving/cluster.hpp"
#include "aeris/serving/registry.hpp"
#include "aeris/serving/server.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris::serving {
namespace {

using core::AerisModel;
using core::ConsistencySamplerConfig;
using core::DiffusionForecaster;
using core::ModelConfig;
using core::ParallelEnsembleEngine;
using core::SamplerKind;

// Fine 8x8 and coarse 4x4 grids over the same variable set; every
// parameter-bearing dimension matches, so the coarse variant can alias a
// fine model's backbone (blocks are grid-free).
ModelConfig grid_cfg(std::int64_t h, std::int64_t w) {
  ModelConfig c;
  c.h = h;
  c.w = w;
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

ModelConfig fine_cfg() { return grid_cfg(8, 8); }
ModelConfig coarse_cfg() { return grid_cfg(4, 4); }

AerisModel make_model(const ModelConfig& cfg, std::uint64_t seed) {
  AerisModel model(cfg, seed);
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

Tensor make_init(std::int64_t h, std::int64_t w, std::uint64_t key) {
  Philox rng(5);
  Tensor init({h, w, 3});
  rng.fill_normal(init, 1, key);
  return init;
}

Tensor make_forcing_grid(std::int64_t h, std::int64_t w, std::int64_t step) {
  Philox rng(6);
  Tensor f({h, w, 2});
  rng.fill_normal(f, 2, static_cast<std::uint64_t>(step));
  return f;
}

Tensor fine_forcing(std::int64_t step) { return make_forcing_grid(8, 8, step); }
Tensor coarse_forcing(std::int64_t step) {
  return make_forcing_grid(4, 4, step);
}

void expect_trajs_bitwise(const std::vector<std::vector<Tensor>>& got,
                          const std::vector<std::vector<Tensor>>& ref,
                          const std::string& what) {
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t m = 0; m < ref.size(); ++m) {
    ASSERT_EQ(got[m].size(), ref[m].size()) << what << " member " << m;
    for (std::size_t s = 0; s < ref[m].size(); ++s) {
      ASSERT_EQ(
          std::memcmp(got[m][s].data(), ref[m][s].data(),
                      static_cast<std::size_t>(ref[m][s].numel()) *
                          sizeof(float)),
          0)
          << what << " member " << m << " step " << s;
    }
  }
}

/// Two independently constructed variants (fine default + coarse preview)
/// behind one registry. Lifetime: models outlive engines outlive registry
/// users.
struct TwoModelZoo {
  AerisModel fine_model = make_model(fine_cfg(), 11);
  AerisModel coarse_model = make_model(coarse_cfg(), 12);
  core::TrigFlowConfig tf{};
  core::TrigSamplerConfig ts = [] {
    core::TrigSamplerConfig t;
    t.steps = 4;
    return t;
  }();
  ParallelEnsembleEngine fine_eng{fine_model, tf, ts, 0};
  ParallelEnsembleEngine coarse_eng{coarse_model, tf, ts, 0};
  ModelRegistry registry;

  TwoModelZoo() {
    registry.add("fine", fine_eng, /*skill_tier=*/1);
    registry.add("coarse", coarse_eng, /*skill_tier=*/0);
  }
};

// ---------------------------------------------------------------------------
// Registry semantics

TEST(ModelRegistry, ResolvesNamesQualityClassesAndDefault) {
  TwoModelZoo z;
  EXPECT_EQ(z.registry.size(), 2);
  EXPECT_EQ(z.registry.default_index(), 0);  // first added

  EXPECT_EQ(z.registry.resolve("fine", QualityClass::kAny), 0);
  EXPECT_EQ(z.registry.resolve("coarse", QualityClass::kAny), 1);
  // A pinned name wins over the quality class.
  EXPECT_EQ(z.registry.resolve("coarse", QualityClass::kFullSkill), 1);
  EXPECT_EQ(z.registry.resolve("nope", QualityClass::kAny), -1);

  // Empty name routes by quality class.
  EXPECT_EQ(z.registry.resolve("", QualityClass::kAny), 0);
  EXPECT_EQ(z.registry.resolve("", QualityClass::kPreview), 1);   // tier 0
  EXPECT_EQ(z.registry.resolve("", QualityClass::kFullSkill), 0);  // tier 1

  z.registry.set_default("coarse");
  EXPECT_EQ(z.registry.resolve("", QualityClass::kAny), 1);
  EXPECT_THROW(z.registry.set_default("nope"), std::invalid_argument);

  EXPECT_EQ(z.registry.find("fine")->engine, &z.fine_eng);
  EXPECT_EQ(z.registry.find("nope"), nullptr);
  EXPECT_THROW(z.registry.at(2), std::out_of_range);
  EXPECT_THROW(z.registry.at(-1), std::out_of_range);

  // Duplicate and empty names are registration errors.
  EXPECT_THROW(z.registry.add("fine", z.coarse_eng), std::invalid_argument);
  EXPECT_THROW(z.registry.add("", z.coarse_eng), std::invalid_argument);

  // An empty registry cannot serve.
  ModelRegistry empty;
  EXPECT_THROW(RequestLedger(empty, ServerOptions{}), std::invalid_argument);
}

TEST(ModelRegistry, FallbackEdgesAreValidatedAtDeclaration) {
  TwoModelZoo z;
  EXPECT_THROW(z.registry.set_fallback("nope", "coarse"),
               std::invalid_argument);
  EXPECT_THROW(z.registry.set_fallback("fine", "nope"),
               std::invalid_argument);
  EXPECT_THROW(z.registry.set_fallback("fine", "fine"),
               std::invalid_argument);

  // Mismatched variable set: a 2-variable model cannot back a 3-variable
  // one.
  ModelConfig other = coarse_cfg();
  other.out_channels = 2;
  other.in_channels = 2 * 2 + 2;
  AerisModel other_model(other, 3);
  ParallelEnsembleEngine other_eng{other_model, z.tf, z.ts, 0};
  z.registry.add("othervars", other_eng);
  EXPECT_THROW(z.registry.set_fallback("fine", "othervars"),
               std::invalid_argument);

  // Non-divisible grid: 8x8 cannot coarsen onto 6x6.
  ModelConfig odd = grid_cfg(6, 6);
  odd.win_h = 2;
  odd.win_w = 2;
  AerisModel odd_model(odd, 4);
  ParallelEnsembleEngine odd_eng{odd_model, z.tf, z.ts, 0};
  z.registry.add("oddgrid", odd_eng);
  EXPECT_THROW(z.registry.set_fallback("fine", "oddgrid"),
               std::invalid_argument);

  z.registry.set_fallback("fine", "coarse");
  EXPECT_EQ(z.registry.find("fine")->fallback, 1);
  EXPECT_EQ(z.registry.find("coarse")->fallback, -1);
}

TEST(ModelRegistry, EnvOverlayRoutesDefaultAndFallback) {
  TwoModelZoo z;
  ASSERT_EQ(setenv("AERIS_SERVE_MODEL", "coarse", 1), 0);
  z.registry.overlay_env();
  EXPECT_EQ(z.registry.default_index(), 1);

  ASSERT_EQ(setenv("AERIS_SERVE_MODEL", "fine", 1), 0);
  ASSERT_EQ(setenv("AERIS_SERVE_FALLBACK_MODEL", "coarse", 1), 0);
  z.registry.overlay_env();
  EXPECT_EQ(z.registry.default_index(), 0);
  EXPECT_EQ(z.registry.find("fine")->fallback, 1);

  // A typo'd deployment fails loudly at startup.
  ASSERT_EQ(setenv("AERIS_SERVE_MODEL", "typo", 1), 0);
  EXPECT_THROW(z.registry.overlay_env(), std::invalid_argument);

  unsetenv("AERIS_SERVE_MODEL");
  unsetenv("AERIS_SERVE_FALLBACK_MODEL");
}

// ---------------------------------------------------------------------------
// Shared-backbone weight ownership

TEST(SharedBackbone, VariantAliasesDonorStorageExceptHead) {
  AerisModel fine = make_model(fine_cfg(), 21);
  AerisModel coarse(coarse_cfg(), fine);
  EXPECT_TRUE(coarse.shares_backbone());
  EXPECT_FALSE(fine.shares_backbone());

  // The blocks are the *same objects*, not copies.
  EXPECT_EQ(&coarse.block(0), &fine.block(0));
  EXPECT_EQ(&coarse.block(1), &fine.block(1));

  // Full const param lists: every non-head parameter is the donor's
  // storage; the head is fresh storage initialized to the donor's values
  // (out_channels agree).
  const nn::ConstParamList& fp =
      static_cast<const AerisModel&>(fine).params();
  const nn::ConstParamList& cp =
      static_cast<const AerisModel&>(coarse).params();
  ASSERT_EQ(fp.size(), cp.size());
  std::int64_t shared = 0, owned = 0;
  for (std::size_t i = 0; i < fp.size(); ++i) {
    ASSERT_EQ(fp[i]->name, cp[i]->name);
    if (cp[i]->name.find("head") != std::string::npos) {
      EXPECT_NE(fp[i], cp[i]) << cp[i]->name;
      ASSERT_EQ(fp[i]->value.numel(), cp[i]->value.numel());
      EXPECT_EQ(std::memcmp(fp[i]->value.data(), cp[i]->value.data(),
                            static_cast<std::size_t>(cp[i]->value.numel()) *
                                sizeof(float)),
                0)
          << cp[i]->name;
      ++owned;
    } else {
      EXPECT_EQ(fp[i], cp[i]) << cp[i]->name;
      ++shared;
    }
  }
  EXPECT_GT(shared, 0);
  EXPECT_GT(owned, 0);

  // Mutable params of the variant cover the owned head alone.
  AerisModel& mut = coarse;
  const nn::ParamList& mp = mut.params();
  EXPECT_EQ(static_cast<std::int64_t>(mp.size()), owned);
  for (const nn::Param* p : mp) {
    EXPECT_NE(p->name.find("head"), std::string::npos) << p->name;
  }

  // A parameter-bearing dimension mismatch is rejected.
  ModelConfig wrong = coarse_cfg();
  wrong.dim = 32;
  wrong.ffn_hidden = 64;
  EXPECT_THROW(AerisModel(wrong, fine), std::invalid_argument);
}

TEST(SharedBackbone, DistillerTrainsOnlyTheOwnedHead) {
  ModelConfig cfg = fine_cfg();
  AerisModel teacher = make_model(cfg, 31);
  AerisModel student(cfg, teacher);  // shares the frozen teacher backbone

  core::DistillConfig dc;
  dc.teacher.steps = 4;
  dc.schedule.peak = 2e-3f;
  dc.schedule.warmup = 4;
  dc.schedule.total = 1'000'000;
  dc.schedule.decay = 10;
  dc.ema_half_life = 32.0f;
  dc.seed = 5;
  core::ConsistencyDistiller distiller(student, teacher, dc);

  // init_from_teacher name-matched the head copy.
  const nn::ConstParamList& tp =
      static_cast<const AerisModel&>(teacher).params();
  std::map<std::string, const nn::Param*> by_name;
  for (const nn::Param* p : tp) by_name[p->name] = p;
  for (const nn::Param* p : student.params()) {
    ASSERT_NE(by_name.count(p->name), 0u) << p->name;
  }

  // Snapshot the shared backbone and the owned head.
  std::vector<std::vector<float>> backbone_before;
  for (const nn::Param* p :
       static_cast<const AerisModel&>(student).params()) {
    if (p->name.find("head") == std::string::npos) {
      backbone_before.emplace_back(
          p->value.data(), p->value.data() + p->value.numel());
    }
  }
  std::vector<float> head_before(
      student.params()[0]->value.data(),
      student.params()[0]->value.data() + student.params()[0]->value.numel());

  std::vector<core::TrainExample> batch;
  for (std::uint64_t i = 0; i < 2; ++i) {
    core::TrainExample ex;
    ex.prev = make_init(cfg.h, cfg.w, 40 + i);
    ex.target = make_init(cfg.h, cfg.w, 50 + i);
    ex.forcings = make_forcing_grid(cfg.h, cfg.w, static_cast<std::int64_t>(i));
    batch.push_back(std::move(ex));
  }
  // Several steps: the first sits inside LR warmup.
  for (int s = 0; s < 4; ++s) distiller.distill_step(batch);

  // The optimizer stepped the head...
  EXPECT_NE(std::memcmp(head_before.data(), student.params()[0]->value.data(),
                        head_before.size() * sizeof(float)),
            0);
  // ...and never touched the shared (= teacher's) backbone weights.
  std::size_t bi = 0;
  for (const nn::Param* p :
       static_cast<const AerisModel&>(student).params()) {
    if (p->name.find("head") != std::string::npos) continue;
    ASSERT_EQ(std::memcmp(backbone_before[bi].data(), p->value.data(),
                          backbone_before[bi].size() * sizeof(float)),
              0)
        << p->name;
    ++bi;
  }
}

// ---------------------------------------------------------------------------
// Routing through the server

TEST(MultiModelServer, UnknownModelIsTypedRejection) {
  TwoModelZoo z;
  ForecastServer server(z.registry, ServerOptions{});

  ForecastRequest req;
  req.init = make_init(8, 8, 0);
  req.forcings_at = fine_forcing;
  req.model = "nope";
  const ForecastResult r = server.forecast(req);
  EXPECT_EQ(r.status, RequestStatus::kRejected);
  ASSERT_NE(r.error, nullptr);
  try {
    std::rethrow_exception(r.error);
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kUnsupported);
  }
  EXPECT_EQ(server.stats().rejected, 1);
  EXPECT_EQ(server.stats().accepted, 0);
}

TEST(MultiModelServer, PinnedVariantsBitwiseMatchSingleModelServers) {
  TwoModelZoo z;
  ServerOptions opts;
  opts.batch = 4;
  opts.workers = 2;
  ForecastServer zoo(z.registry, opts);

  ForecastRequest fine_req;
  fine_req.init = make_init(8, 8, 1);
  fine_req.forcings_at = fine_forcing;
  fine_req.members = 2;
  fine_req.steps = 2;
  fine_req.seed = 7;
  fine_req.model = "fine";

  ForecastRequest coarse_req;
  coarse_req.init = make_init(4, 4, 2);
  coarse_req.forcings_at = coarse_forcing;
  coarse_req.members = 2;
  coarse_req.steps = 2;
  coarse_req.seed = 8;
  coarse_req.model = "coarse";

  ForecastResult fr, cr;
  std::thread t1([&] { fr = zoo.forecast(fine_req); });
  std::thread t2([&] { cr = zoo.forecast(coarse_req); });
  t1.join();
  t2.join();
  ASSERT_TRUE(fr.ok()) << fr.error_message;
  ASSERT_TRUE(cr.ok()) << cr.error_message;
  EXPECT_EQ(fr.model_served, "fine");
  EXPECT_EQ(cr.model_served, "coarse");
  EXPECT_FALSE(fr.degraded);
  EXPECT_FALSE(cr.degraded);

  // References: each variant alone behind a single-model server.
  ForecastServer fine_only(z.fine_eng, ServerOptions{});
  ForecastRequest fine_plain = fine_req;
  fine_plain.model.clear();
  const ForecastResult fref = fine_only.forecast(fine_plain);
  ASSERT_TRUE(fref.ok());
  expect_trajs_bitwise(fr.trajectories, fref.trajectories, "fine pinned");

  ForecastServer coarse_only(z.coarse_eng, ServerOptions{});
  ForecastRequest coarse_plain = coarse_req;
  coarse_plain.model.clear();
  const ForecastResult cref = coarse_only.forecast(coarse_plain);
  ASSERT_TRUE(cref.ok());
  expect_trajs_bitwise(cr.trajectories, cref.trajectories, "coarse pinned");
}

TEST(MultiModelServer, QualityClassRoutesUnpinnedRequests) {
  TwoModelZoo z;
  ForecastServer server(z.registry, ServerOptions{});

  ForecastRequest preview;
  preview.init = make_init(4, 4, 3);
  preview.forcings_at = coarse_forcing;
  preview.quality = QualityClass::kPreview;
  const ForecastResult pr = server.forecast(preview);
  ASSERT_TRUE(pr.ok()) << pr.error_message;
  EXPECT_EQ(pr.model_served, "coarse");

  ForecastRequest full;
  full.init = make_init(8, 8, 4);
  full.forcings_at = fine_forcing;
  full.quality = QualityClass::kFullSkill;
  const ForecastResult fr = server.forecast(full);
  ASSERT_TRUE(fr.ok()) << fr.error_message;
  EXPECT_EQ(fr.model_served, "fine");

  ForecastRequest any;
  any.init = make_init(8, 8, 5);
  any.forcings_at = fine_forcing;
  const ForecastResult ar = server.forecast(any);
  ASSERT_TRUE(ar.ok()) << ar.error_message;
  EXPECT_EQ(ar.model_served, "fine");  // registry default
}

// ---------------------------------------------------------------------------
// Cross-model degrade rung

TEST(MultiModelServer, ForcedFallbackServesCoarseVariantBitwise) {
  // The coarse variant shares the fine model's backbone: the degrade rung
  // re-routes onto aliased weights and a coarsened grid.
  AerisModel fine_model = make_model(fine_cfg(), 41);
  AerisModel coarse_model(coarse_cfg(), fine_model);
  core::TrigFlowConfig tf{};
  core::TrigSamplerConfig ts;
  ts.steps = 4;
  ParallelEnsembleEngine fine_eng{fine_model, tf, ts, 0};
  ParallelEnsembleEngine coarse_eng{coarse_model, tf, ts, 0};
  ModelRegistry registry;
  registry.add("fine", fine_eng, 1);
  registry.add("coarse", coarse_eng, 0);
  registry.set_fallback("fine", "coarse");

  ServerOptions opts;
  opts.degrade.fallback_wait_threshold_ms = -1.0;  // force the zeroth rung
  ForecastServer server(registry, opts);

  ForecastRequest req;
  req.init = make_init(8, 8, 6);
  req.forcings_at = fine_forcing;
  req.members = 2;
  req.steps = 2;
  req.seed = 9;
  req.model = "fine";
  const ForecastResult r = server.forecast(req);
  ASSERT_TRUE(r.ok()) << r.error_message;
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.model_served, "coarse");
  EXPECT_EQ(r.sampler, SamplerKind::kDpmSolver);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded, 1);
  EXPECT_EQ(stats.degraded_to_fallback_model, 1);
  EXPECT_EQ(stats.per_model.at("fine").degraded_to_fallback_model, 1);
  EXPECT_EQ(stats.per_model.at("fine").admitted, 0);
  EXPECT_EQ(stats.per_model.at("coarse").admitted, 1);
  EXPECT_EQ(stats.per_model.at("coarse").completed, 1);

  // Bitwise: the coarse engine serving the area-mean-coarsened request.
  DiffusionForecaster serial(coarse_model, tf, ts, req.seed);
  const auto ref = serial.ensemble_rollout(
      coarsen_mean(req.init, 4, 4),
      [](std::int64_t s) { return coarsen_mean(fine_forcing(s), 4, 4); },
      req.steps, req.members);
  expect_trajs_bitwise(r.trajectories, ref, "forced fallback");
}

TEST(MultiModelServer, FallbackStacksWithConsistencyRung) {
  // Both the zeroth (cross-model) and the teacher->student rungs forced:
  // the request lands on the coarse variant's distilled student, and the
  // degraded admission is counted exactly once.
  TwoModelZoo z;
  AerisModel coarse_student = make_model(coarse_cfg(), 13);
  ConsistencySamplerConfig cc;
  cc.steps = 2;
  z.coarse_eng.set_consistency(&coarse_student, cc);
  z.registry.set_fallback("fine", "coarse");

  ServerOptions opts;
  opts.degrade.fallback_wait_threshold_ms = -1.0;
  opts.degrade.est_wait_threshold_ms = -1.0;
  ForecastServer server(z.registry, opts);

  ForecastRequest req;
  req.init = make_init(8, 8, 7);
  req.forcings_at = fine_forcing;
  req.members = 2;
  req.steps = 1;
  req.seed = 10;
  req.model = "fine";
  const ForecastResult r = server.forecast(req);
  ASSERT_TRUE(r.ok()) << r.error_message;
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.model_served, "coarse");
  EXPECT_EQ(r.sampler, SamplerKind::kConsistency);
  EXPECT_EQ(r.solver_steps, 2);
  EXPECT_EQ(r.members_served, 2);  // switch absorbs the load; no cuts

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded, 1);  // stacked rungs count the admission once
  EXPECT_EQ(stats.degraded_to_fallback_model, 1);
  EXPECT_EQ(stats.degraded_to_consistency, 1);
}

TEST(MultiModelServer, PinnedTeacherSamplerSkipsFallbackWithoutStudent) {
  // A request that pinned kConsistency must not be re-routed to a fallback
  // variant that cannot serve it; the rung is skipped, not the request.
  TwoModelZoo z;
  AerisModel fine_student = make_model(fine_cfg(), 14);
  ConsistencySamplerConfig cc;
  cc.steps = 2;
  z.fine_eng.set_consistency(&fine_student, cc);
  z.registry.set_fallback("fine", "coarse");  // coarse has no student

  ServerOptions opts;
  opts.degrade.fallback_wait_threshold_ms = -1.0;
  ForecastServer server(z.registry, opts);

  ForecastRequest req;
  req.init = make_init(8, 8, 8);
  req.forcings_at = fine_forcing;
  req.sampler = SamplerKind::kConsistency;
  req.model = "fine";
  const ForecastResult r = server.forecast(req);
  ASSERT_TRUE(r.ok()) << r.error_message;
  EXPECT_EQ(r.model_served, "fine");
  EXPECT_EQ(r.sampler, SamplerKind::kConsistency);
  EXPECT_EQ(server.stats().degraded_to_fallback_model, 0);
}

// ---------------------------------------------------------------------------
// Per-model stats accounting

TEST(MultiModelServer, PerModelCountersCrossCheckAgainstAggregates) {
  TwoModelZoo z;
  ForecastServer server(z.registry, ServerOptions{});

  auto pinned = [&](const std::string& model, std::int64_t h,
                    std::uint64_t key) {
    ForecastRequest req;
    req.init = make_init(h, h, key);
    req.forcings_at = h == 8 ? core::ForcingFn(fine_forcing)
                             : core::ForcingFn(coarse_forcing);
    req.model = model;
    return server.forecast(req);
  };
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(pinned("fine", 8, 10 + i).ok());
  }
  for (std::uint64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(pinned("coarse", 4, 20 + i).ok());
  }
  EXPECT_EQ(pinned("nope", 8, 30).status, RequestStatus::kRejected);
  {
    ForecastRequest req;  // kConsistency without a student: typed reject
    req.init = make_init(8, 8, 31);
    req.forcings_at = fine_forcing;
    req.model = "fine";
    req.sampler = SamplerKind::kConsistency;
    EXPECT_EQ(server.forecast(req).status, RequestStatus::kRejected);
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 5);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.completed, 5);
  ASSERT_EQ(stats.per_model.size(), 2u);
  EXPECT_EQ(stats.per_model.at("fine").admitted, 3);
  EXPECT_EQ(stats.per_model.at("fine").completed, 3);
  EXPECT_EQ(stats.per_model.at("coarse").admitted, 2);
  EXPECT_EQ(stats.per_model.at("coarse").completed, 2);

  // The per-model counters partition the aggregates exactly.
  std::int64_t admitted = 0, completed = 0, fell_back = 0;
  for (const auto& [name, ms] : stats.per_model) {
    admitted += ms.admitted;
    completed += ms.completed;
    fell_back += ms.degraded_to_fallback_model;
  }
  EXPECT_EQ(admitted, stats.accepted);
  EXPECT_EQ(completed, stats.completed);
  EXPECT_EQ(fell_back, stats.degraded_to_fallback_model);
}

// ---------------------------------------------------------------------------
// Pack purity

TEST(MultiModelLedger, PacksNeverMixVariantsOrSamplerFamilies) {
  // Randomized mixed-variant admission straight into the ledger; every
  // checked-out pack must be uniform in (engine, sampler, solver steps).
  TwoModelZoo z;
  AerisModel fine_student = make_model(fine_cfg(), 15);
  ConsistencySamplerConfig cc;
  cc.steps = 2;
  z.fine_eng.set_consistency(&fine_student, cc);

  ServerOptions opts;
  opts.queue_capacity = 64;
  RequestLedger ledger(z.registry, opts);

  std::mt19937 rng(1234);
  std::vector<std::future<ForecastResult>> futures;
  int admitted = 0;
  std::int64_t expected_items = 0;
  for (int i = 0; i < 24; ++i) {
    const int pick = static_cast<int>(rng() % 3u);
    ForecastRequest req;
    req.members = 1 + static_cast<std::int64_t>(rng() % 3u);
    req.steps = 1;
    req.seed = static_cast<std::uint64_t>(i);
    if (pick == 0) {  // fine, teacher path
      req.init = make_init(8, 8, 100 + static_cast<std::uint64_t>(i));
      req.forcings_at = fine_forcing;
      req.model = "fine";
    } else if (pick == 1) {  // fine, student path
      req.init = make_init(8, 8, 200 + static_cast<std::uint64_t>(i));
      req.forcings_at = fine_forcing;
      req.model = "fine";
      req.sampler = SamplerKind::kConsistency;
    } else {  // coarse
      req.init = make_init(4, 4, 300 + static_cast<std::uint64_t>(i));
      req.forcings_at = coarse_forcing;
      req.model = "coarse";
    }
    std::future<ForecastResult> future;
    ForecastResult refused;
    ASSERT_FALSE(ledger.admit(req, 1, future, refused));
    futures.push_back(std::move(future));
    ++admitted;
    expected_items += req.members;
  }
  ASSERT_EQ(admitted, 24);

  std::int64_t items_seen = 0;
  std::map<const core::ParallelEnsembleEngine*, int> engines_seen;
  std::map<SamplerKind, int> samplers_seen;
  for (;;) {
    const std::vector<PackItem> pack = ledger.checkout(5).items;
    if (pack.empty()) break;
    const core::ParallelEnsembleEngine* engine = pack.front().a->engine;
    const SamplerKind sampler = pack.front().a->sampler;
    const int steps = pack.front().a->solver_steps;
    ASSERT_NE(engine, nullptr);
    for (const PackItem& item : pack) {
      EXPECT_EQ(item.a->engine, engine);
      EXPECT_EQ(item.a->sampler, sampler);
      EXPECT_EQ(item.a->solver_steps, steps);
    }
    ++engines_seen[engine];
    ++samplers_seen[sampler];
    items_seen += static_cast<std::int64_t>(pack.size());
  }
  // Every admitted member-step was checked out exactly once, and the mix
  // actually exercised both engines and both sampler families.
  EXPECT_EQ(items_seen, expected_items);
  EXPECT_EQ(engines_seen.size(), 2u);
  EXPECT_EQ(samplers_seen.size(), 2u);

  ledger.begin_stop();
  ledger.drain_all(RequestStatus::kRejected, "test over");
}

// ---------------------------------------------------------------------------
// Per-variant backlog isolation (DegradePolicy wait estimate)

TEST(MultiModelLedger, SlowVariantBacklogNeverDegradesAFastVariant) {
  // Regression for the scalar backlog estimate: "fine" (with a fallback
  // edge to "coarse") and an independent "slow" variant share one ledger.
  // The slow variant is given a huge step-cost EMA and a deep pending
  // queue; a fine admission must still see its OWN empty backlog and stay
  // on the fine variant. The rung then must still fire — keyed correctly —
  // once the fine variant itself accumulates cost and backlog.
  TwoModelZoo z;
  AerisModel slow_model = make_model(fine_cfg(), 17);
  ParallelEnsembleEngine slow_eng{slow_model, z.tf, z.ts, 0};
  z.registry.add("slow", slow_eng, 1);
  z.registry.set_fallback("fine", "coarse");

  ServerOptions opts;
  opts.queue_capacity = 64;
  opts.degrade.fallback_wait_threshold_ms = 50.0;  // a real threshold
  RequestLedger ledger(z.registry, opts);

  const auto admit = [&](const char* model, std::int64_t members,
                         std::int64_t steps, std::uint64_t seed) {
    ForecastRequest req;
    req.init = make_init(8, 8, seed);
    req.forcings_at = fine_forcing;
    req.members = members;
    req.steps = steps;
    req.seed = seed;
    req.model = model;
    std::future<ForecastResult> future;
    ForecastResult refused;
    EXPECT_FALSE(ledger.admit(req, 1, future, refused))
        << "admission refused for " << model;
    return future;
  };
  // Checks one pack out and commits it as if the solve took `fine_ms`
  // (fine packs) or 1 ms (anything else), advancing each member with a
  // copy of its previous state — the EMA reads only pack_ms and the pack
  // size.
  const auto pump_one = [&](double fine_ms) -> std::string {
    Pack pack = ledger.checkout(32);
    if (pack.items.empty()) return "";
    const std::string name = pack.items.front().a->model_name;
    PackOutcome out;
    out.pack_ms = name == "fine" ? fine_ms : 1.0;
    for (const PackItem& item : pack.items) out.next.push_back(*item.prev);
    ledger.commit_pack(std::move(pack.items), std::move(out));
    return name;
  };
  const auto drain = [&](double fine_ms) {
    while (!pump_one(fine_ms).empty()) {
    }
  };

  // Seed the slow variant's EMA with a monster step cost, then pile a deep
  // pending queue onto it (4 members x 4 steps, uncommitted).
  auto f_seed = admit("slow", 2, 1, 70);
  EXPECT_EQ(pump_one(0.0), "slow");
  auto f_pile = admit("slow", 4, 4, 71);
  // Overwrite the 1ms commit above: the EMA must be large when the fine
  // probe admits. Commit one more slow pack at a huge cost.
  auto f_pile2 = admit("slow", 2, 1, 76);

  // Force the slow EMA high via a direct huge-cost commit.
  {
    Pack pack = ledger.checkout(32);
    ASSERT_FALSE(pack.items.empty());
    ASSERT_EQ(pack.items.front().a->model_name, "slow");
    PackOutcome out;
    out.pack_ms = 1.0e6;
    for (const PackItem& item : pack.items) out.next.push_back(*item.prev);
    ledger.commit_pack(std::move(pack.items), std::move(out));
  }

  // The regression claim: a fine admission is routed on the fine variant's
  // own (empty) backlog — with the old scalar accounting, the slow queue's
  // huge estimate would have shed it to "coarse" here.
  auto f_probe = admit("fine", 2, 1, 72);

  // Seed the fine variant's own EMA, then give it backlog of its own.
  auto f_fine_seed = admit("fine", 2, 1, 73);
  drain(1.0e6);
  const ForecastResult probe = f_probe.get();
  ASSERT_TRUE(probe.ok()) << probe.error_message;
  EXPECT_EQ(probe.model_served, "fine")
      << "slow-variant backlog degraded a fine admission";
  EXPECT_FALSE(probe.degraded);
  EXPECT_EQ(ledger.stats().degraded_to_fallback_model, 0);

  // Positive control, keyed correctly: with the fine variant's own EMA
  // seeded and its own queue deep, the next fine admission does fall back.
  auto f_backlog = admit("fine", 4, 4, 74);
  auto f_shed = admit("fine", 2, 1, 75);
  drain(1.0);
  const ForecastResult shed = f_shed.get();
  ASSERT_TRUE(shed.ok()) << shed.error_message;
  EXPECT_EQ(shed.model_served, "coarse");
  EXPECT_TRUE(shed.degraded);

  const ServerStats stats = ledger.stats();
  EXPECT_EQ(stats.degraded_to_fallback_model, 1);
  EXPECT_EQ(stats.per_model.at("fine").degraded_to_fallback_model, 1);

  // Every future terminated kOk on its own variant.
  for (auto* f : {&f_seed, &f_pile, &f_pile2, &f_fine_seed, &f_backlog}) {
    const ForecastResult r = f->get();
    EXPECT_TRUE(r.ok()) << r.error_message;
  }
  ledger.begin_stop();
  ledger.drain_all(RequestStatus::kRejected, "test over");
}

TEST(MultiModelServer, MixedVariantClientsConcurrentBitwise) {
  // The sanitizer-leg drill: four concurrent clients across variants,
  // sampler families and quality classes hammer one zoo server; each gets
  // trajectories bitwise-identical to its serial single-model reference.
  TwoModelZoo z;
  AerisModel fine_student = make_model(fine_cfg(), 16);
  ConsistencySamplerConfig cc;
  cc.steps = 2;
  z.fine_eng.set_consistency(&fine_student, cc);

  ServerOptions opts;
  opts.batch = 4;
  opts.workers = 2;
  ForecastServer server(z.registry, opts);

  ForecastRequest fine_req;
  fine_req.init = make_init(8, 8, 60);
  fine_req.forcings_at = fine_forcing;
  fine_req.members = 2;
  fine_req.steps = 2;
  fine_req.seed = 101;
  fine_req.model = "fine";

  ForecastRequest student_req = fine_req;
  student_req.init = make_init(8, 8, 61);
  student_req.seed = 102;
  student_req.sampler = SamplerKind::kConsistency;

  ForecastRequest coarse_req;
  coarse_req.init = make_init(4, 4, 62);
  coarse_req.forcings_at = coarse_forcing;
  coarse_req.members = 2;
  coarse_req.steps = 2;
  coarse_req.seed = 103;
  coarse_req.model = "coarse";

  ForecastRequest preview_req = coarse_req;
  preview_req.init = make_init(4, 4, 63);
  preview_req.seed = 104;
  preview_req.model.clear();
  preview_req.quality = QualityClass::kPreview;

  ForecastResult fr, sr, cr, pr;
  std::thread t1([&] { fr = server.forecast(fine_req); });
  std::thread t2([&] { sr = server.forecast(student_req); });
  std::thread t3([&] { cr = server.forecast(coarse_req); });
  std::thread t4([&] { pr = server.forecast(preview_req); });
  t1.join();
  t2.join();
  t3.join();
  t4.join();
  ASSERT_TRUE(fr.ok()) << fr.error_message;
  ASSERT_TRUE(sr.ok()) << sr.error_message;
  ASSERT_TRUE(cr.ok()) << cr.error_message;
  ASSERT_TRUE(pr.ok()) << pr.error_message;
  EXPECT_EQ(fr.model_served, "fine");
  EXPECT_EQ(sr.model_served, "fine");
  EXPECT_EQ(cr.model_served, "coarse");
  EXPECT_EQ(pr.model_served, "coarse");

  DiffusionForecaster fine_serial(z.fine_model, z.tf, z.ts, fine_req.seed);
  expect_trajs_bitwise(fr.trajectories,
                       fine_serial.ensemble_rollout(fine_req.init,
                                                    fine_forcing, 2, 2),
                       "fine client");
  DiffusionForecaster student_serial(fine_student, z.tf, cc,
                                     student_req.seed);
  expect_trajs_bitwise(sr.trajectories,
                       student_serial.ensemble_rollout(student_req.init,
                                                       fine_forcing, 2, 2),
                       "student client");
  DiffusionForecaster coarse_serial(z.coarse_model, z.tf, z.ts,
                                    coarse_req.seed);
  expect_trajs_bitwise(cr.trajectories,
                       coarse_serial.ensemble_rollout(coarse_req.init,
                                                      coarse_forcing, 2, 2),
                       "coarse client");
  DiffusionForecaster preview_serial(z.coarse_model, z.tf, z.ts,
                                     preview_req.seed);
  expect_trajs_bitwise(pr.trajectories,
                       preview_serial.ensemble_rollout(preview_req.init,
                                                       coarse_forcing, 2, 2),
                       "preview client");
}

// ---------------------------------------------------------------------------
// Cluster front-end

TEST(ClusterMultiModel, PinnedVariantsBitwiseAcrossRanks) {
  TwoModelZoo z;
  ClusterOptions copts;
  copts.ranks = 3;
  copts.serve.batch = 4;
  ClusterForecastServer cluster(z.registry, copts);

  ForecastRequest fine_req;
  fine_req.init = make_init(8, 8, 70);
  fine_req.forcings_at = fine_forcing;
  fine_req.members = 2;
  fine_req.steps = 2;
  fine_req.seed = 201;
  fine_req.model = "fine";

  ForecastRequest coarse_req;
  coarse_req.init = make_init(4, 4, 71);
  coarse_req.forcings_at = coarse_forcing;
  coarse_req.members = 2;
  coarse_req.steps = 2;
  coarse_req.seed = 202;
  coarse_req.model = "coarse";

  ForecastResult fr, cr;
  std::thread t1([&] { fr = cluster.forecast(fine_req); });
  std::thread t2([&] { cr = cluster.forecast(coarse_req); });
  t1.join();
  t2.join();
  ASSERT_TRUE(fr.ok()) << fr.error_message;
  ASSERT_TRUE(cr.ok()) << cr.error_message;
  EXPECT_EQ(fr.model_served, "fine");
  EXPECT_EQ(cr.model_served, "coarse");

  DiffusionForecaster fine_serial(z.fine_model, z.tf, z.ts, fine_req.seed);
  expect_trajs_bitwise(fr.trajectories,
                       fine_serial.ensemble_rollout(fine_req.init,
                                                    fine_forcing, 2, 2),
                       "cluster fine");
  DiffusionForecaster coarse_serial(z.coarse_model, z.tf, z.ts,
                                    coarse_req.seed);
  expect_trajs_bitwise(cr.trajectories,
                       coarse_serial.ensemble_rollout(coarse_req.init,
                                                      coarse_forcing, 2, 2),
                       "cluster coarse");

  const ServerStats stats = cluster.stats();
  EXPECT_EQ(stats.per_model.at("fine").completed, 1);
  EXPECT_EQ(stats.per_model.at("coarse").completed, 1);
}

}  // namespace
}  // namespace aeris::serving
