// Kernel-level microbenchmarks (google-benchmark): the compute and
// communication primitives underlying every experiment.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "aeris/core/ensemble.hpp"
#include "aeris/core/model.hpp"
#include "aeris/core/sampler.hpp"
#include "aeris/core/window.hpp"
#include "aeris/serving/cluster.hpp"
#include "aeris/serving/server.hpp"
#include "aeris/nn/attention.hpp"
#include "aeris/physics/qg.hpp"
#include "aeris/swipe/comm.hpp"
#include "aeris/swipe/fault.hpp"
#include "aeris/swipe/zero1.hpp"
#include "aeris/swipe/window_layout.hpp"
#include "aeris/tensor/gemm.hpp"

namespace {

using namespace aeris;

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Tensor a({n, n}), b({n, n});
  Philox rng(1);
  rng.fill_normal(a, 1, 0);
  rng.fill_normal(b, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_WindowAttentionForward(benchmark::State& state) {
  nn::WindowAttention attn("a", 32, 4, 8, 8);
  Philox rng(2);
  attn.init(rng, 0);
  Tensor x({16, 64, 32});
  rng.fill_normal(x, 1, 0);
  nn::FwdCtx ctx;
  for (auto _ : state) benchmark::DoNotOptimize(attn.forward(x, ctx));
}
BENCHMARK(BM_WindowAttentionForward);

// Streaming (inference-ctx) path: online softmax, no [B,H,T,T] probs.
void BM_WindowAttentionInference(benchmark::State& state) {
  nn::WindowAttention attn("a", 32, 4, 8, 8);
  Philox rng(2);
  attn.init(rng, 0);
  Tensor x({16, 64, 32});
  rng.fill_normal(x, 1, 0);
  nn::FwdCtx ctx(nn::FwdCtx::Mode::kInference);
  for (auto _ : state) benchmark::DoNotOptimize(attn.forward(x, ctx));
}
BENCHMARK(BM_WindowAttentionInference);

void BM_WindowPartitionRoundTrip(benchmark::State& state) {
  Philox rng(3);
  Tensor x({32, 32, 32});
  rng.fill_normal(x, 1, 0);
  for (auto _ : state) {
    Tensor wins = core::window_partition(x, 8, 8, 4);
    benchmark::DoNotOptimize(core::window_reverse(wins, 32, 32, 8, 8, 4));
  }
}
BENCHMARK(BM_WindowPartitionRoundTrip);

void BM_ModelForward(benchmark::State& state) {
  core::ModelConfig mc;
  mc.h = 32;
  mc.w = 32;
  mc.in_channels = 23;
  mc.out_channels = 10;
  mc.dim = 32;
  mc.depth = 2;
  mc.heads = 4;
  mc.ffn_hidden = 64;
  mc.win_h = 8;
  mc.win_w = 8;
  mc.cond_dim = 32;
  core::AerisModel model(mc, 1);
  Philox rng(4);
  Tensor x({1, 32, 32, 23});
  rng.fill_normal(x, 1, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(x, Tensor({1}, 0.5f)));
  }
}
BENCHMARK(BM_ModelForward);

void BM_ReshardPlan(benchmark::State& state) {
  swipe::WindowLayout from(32, 32, 8, 8, 2, 2, 2, 0);
  swipe::WindowLayout to(32, 32, 8, 8, 2, 2, 2, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(swipe::make_reshard_plan(from, to, 0, 0));
  }
}
BENCHMARK(BM_ReshardPlan);

// Gradient-sync ring allreduce on a DP-group-sized buffer. Tracks the
// comm path that dominates the optimizer step (§V-A gradient reductions).
void BM_AllreduceSum(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::int64_t elems = 1 << 16;
  swipe::World world(n);
  for (auto _ : state) {
    world.run([&](int rank) {
      std::vector<int> members(static_cast<std::size_t>(n));
      std::iota(members.begin(), members.end(), 0);
      swipe::Communicator comm(world, members, rank, 1);
      std::vector<float> data(static_cast<std::size_t>(elems),
                              static_cast<float>(rank));
      comm.allreduce_sum(data);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetBytesProcessed(state.iterations() * n * elems *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_AllreduceSum)->Arg(4)->Arg(8);

// Bench guard for the fault-injection hooks: same collective with a fault
// plan ARMED but whose events never match (wrong send ordinals), pinning
// that the per-send hook — one atomic counter bump + a linear match over a
// tiny event list — costs ~0 on the hot path vs BM_AllreduceSum.
void BM_AllreduceSumFaultArmed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::int64_t elems = 1 << 16;
  swipe::World world(n);
  auto plan = std::make_shared<swipe::FaultPlan>();
  plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, /*rank=*/0,
                              /*nth_send=*/~0ull});
  world.set_fault_plan(plan);
  for (auto _ : state) {
    world.run([&](int rank) {
      std::vector<int> members(static_cast<std::size_t>(n));
      std::iota(members.begin(), members.end(), 0);
      swipe::Communicator comm(world, members, rank, 1);
      std::vector<float> data(static_cast<std::size_t>(elems),
                              static_cast<float>(rank));
      comm.allreduce_sum(data);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetBytesProcessed(state.iterations() * n * elems *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_AllreduceSumFaultArmed)->Arg(8);

// One ZeRO-1 optimizer step (allreduce + sharded AdamW + parameter
// redistribution) over a persistent optimizer, amortizing thread spawn
// over several steps per world.run.
void BM_Zero1Step(benchmark::State& state) {
  const int n = 8;
  const int nparams = 32;
  const std::int64_t elems = 8192;
  const int steps_per_iter = 4;
  swipe::World world(n);
  std::vector<std::vector<nn::Param>> params(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<swipe::Zero1Optimizer>> opts(
      static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto& mine = params[static_cast<std::size_t>(r)];
    for (int i = 0; i < nparams; ++i) {
      mine.emplace_back("p" + std::to_string(i), Shape{elems});
      mine.back().value.fill(1.0f);
      mine.back().grad.fill(0.5f);
    }
    nn::ParamList list;
    for (auto& p : mine) list.push_back(&p);
    opts[static_cast<std::size_t>(r)] =
        std::make_unique<swipe::Zero1Optimizer>(list);
  }
  for (auto _ : state) {
    world.run([&](int rank) {
      std::vector<int> members(static_cast<std::size_t>(n));
      std::iota(members.begin(), members.end(), 0);
      swipe::Communicator group(world, members, rank, 1);
      for (int s = 0; s < steps_per_iter; ++s) {
        opts[static_cast<std::size_t>(rank)]->step(group, 1e-3f,
                                                   1.0f / static_cast<float>(n));
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * steps_per_iter * nparams *
                          elems);
}
BENCHMARK(BM_Zero1Step);

// Inter-stage activation handoff: ping-pong of a microbatch-sized
// activation between two pipeline-neighbour ranks.
void BM_PipelineHandoff(benchmark::State& state) {
  const std::int64_t elems = 16 * 1024;
  const int round_trips = 16;
  swipe::World world(2);
  for (auto _ : state) {
    world.run([&](int rank) {
      std::vector<float> act(static_cast<std::size_t>(elems), 1.0f);
      for (int i = 0; i < round_trips; ++i) {
        const std::uint64_t tag = static_cast<std::uint64_t>(i);
        if (rank == 0) {
          world.send(0, 1, tag, act);
          benchmark::DoNotOptimize(world.recv(0, 1, tag));
        } else {
          world.send(1, 0, tag, act);
          benchmark::DoNotOptimize(world.recv(1, 0, tag));
        }
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * round_trips * 2 * elems *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_PipelineHandoff);

void BM_Alltoall(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  swipe::World world(n);
  for (auto _ : state) {
    world.run([&](int rank) {
      std::vector<int> members(static_cast<std::size_t>(n));
      std::iota(members.begin(), members.end(), 0);
      swipe::Communicator comm(world, members, rank, 1);
      std::vector<std::vector<float>> bufs(static_cast<std::size_t>(n),
                                           std::vector<float>(1024));
      benchmark::DoNotOptimize(comm.alltoall(std::move(bufs)));
    });
  }
}
BENCHMARK(BM_Alltoall)->Arg(4)->Arg(8);

void BM_QgStep(benchmark::State& state) {
  physics::QgParams p;
  p.h = 32;
  p.w = 32;
  p.lx = 2 * M_PI;
  physics::TwoLayerQg qg(p);
  qg.init_random(Philox(5), 0, 3e-2);
  qg.run(200);
  for (auto _ : state) qg.step();
}
BENCHMARK(BM_QgStep);

// Batched + threaded ensemble inference (the tentpole of the reentrant
// forward refactor): {members}x{threads}x{batch}. members/1/1 is the old
// serial engine's workload; members/1/members is the batched-step win at
// one thread; members/T/1 distributes member chunks over T drivers sharing
// one read-only model. Items/s counts member-steps, so ratios between
// configurations are member-throughput speedups. Thread scaling is linear
// in *physical cores*: on a 1-core CI box the threaded rows show parity,
// not speedup.
void BM_EnsembleRollout(benchmark::State& state) {
  const std::int64_t members = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  const std::int64_t batch = state.range(2);
  core::ModelConfig mc;
  mc.h = 16;
  mc.w = 16;
  mc.in_channels = 12;
  mc.out_channels = 5;
  mc.dim = 32;
  mc.depth = 2;
  mc.heads = 4;
  mc.ffn_hidden = 64;
  mc.win_h = 8;
  mc.win_w = 8;
  mc.cond_dim = 32;
  core::AerisModel model(mc, 1);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 4;
  sc.churn = 0.3f;
  core::ParallelEnsembleEngine engine(model, tf, sc, 7);
  Philox rng(8);
  Tensor init({16, 16, 5});
  rng.fill_normal(init, 1, 0);
  Tensor forcing({16, 16, 2});
  rng.fill_normal(forcing, 1, 1);
  core::ForcingFn forcings = [&](std::int64_t) { return forcing; };
  core::EnsembleOptions opts;
  opts.batch = batch;
  opts.threads = threads;
  const std::int64_t steps = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.ensemble_rollout(init, forcings, steps, members, opts));
  }
  state.SetItemsProcessed(state.iterations() * members * steps);
}
BENCHMARK(BM_EnsembleRollout)
    ->Args({8, 1, 1})
    ->Args({8, 1, 8})
    ->Args({8, 2, 1})
    ->Args({8, 4, 1})
    ->ArgNames({"members", "threads", "batch"})
    ->UseRealTime();  // workers do the computing; driver CPU time is idle

// The serving front-end under concurrent clients: each iteration submits
// `clients` simultaneous requests that the server packs across requests
// into stacked solves. Baseline for the admission/packing overhead on top
// of BM_EnsembleRollout's raw engine throughput.
void BM_ForecastServer(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const std::int64_t members = state.range(1);
  core::ModelConfig mc;
  mc.h = 16;
  mc.w = 16;
  mc.in_channels = 12;
  mc.out_channels = 5;
  mc.dim = 32;
  mc.depth = 2;
  mc.heads = 4;
  mc.ffn_hidden = 64;
  mc.win_h = 8;
  mc.win_w = 8;
  mc.cond_dim = 32;
  core::AerisModel model(mc, 1);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 4;
  sc.churn = 0.3f;
  core::ParallelEnsembleEngine engine(model, tf, sc, 7);
  serving::ServerOptions opts;
  opts.workers = 2;
  opts.batch = 8;
  serving::ForecastServer server(engine, opts);
  Philox rng(8);
  Tensor init({16, 16, 5});
  rng.fill_normal(init, 1, 0);
  Tensor forcing({16, 16, 2});
  rng.fill_normal(forcing, 1, 1);
  core::ForcingFn forcings = [&](std::int64_t) { return forcing; };
  const std::int64_t steps = 2;
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        serving::ForecastRequest req;
        req.init = init;
        req.forcings_at = forcings;
        req.members = members;
        req.steps = steps;
        req.seed = static_cast<std::uint64_t>(c);
        benchmark::DoNotOptimize(server.forecast(req));
      });
    }
    for (auto& t : pool) t.join();
  }
  state.SetItemsProcessed(state.iterations() * clients * members * steps);
}
BENCHMARK(BM_ForecastServer)
    ->Args({1, 4})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({8, 2})
    ->ArgNames({"clients", "members"})
    ->UseRealTime();  // server workers compute; the driver only waits

// BM_ForecastServer's workload through a registry-backed model zoo:
// `variants` engine variants (v0 the fine 16x16 model, the rest
// shared-backbone 8x8 previews) behind one server, with `clients`
// concurrent requests round-robin pinned across them. The delta against
// BM_ForecastServer at matching client counts prices per-request routing
// plus mixed-variant packing (packs never mix engines, so the workers see
// more, smaller packs).
void BM_ForecastServerMultiModel(benchmark::State& state) {
  const int variants = static_cast<int>(state.range(0));
  const int clients = static_cast<int>(state.range(1));
  core::ModelConfig mc;
  mc.h = 16;
  mc.w = 16;
  mc.in_channels = 12;
  mc.out_channels = 5;
  mc.dim = 32;
  mc.depth = 2;
  mc.heads = 4;
  mc.ffn_hidden = 64;
  mc.win_h = 8;
  mc.win_w = 8;
  mc.cond_dim = 32;
  core::AerisModel fine(mc, 1);
  core::ModelConfig cc = mc;
  cc.h = 8;
  cc.w = 8;
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 4;
  sc.churn = 0.3f;
  std::vector<std::unique_ptr<core::AerisModel>> previews;
  std::vector<std::unique_ptr<core::ParallelEnsembleEngine>> engines;
  serving::ModelRegistry registry;
  engines.push_back(
      std::make_unique<core::ParallelEnsembleEngine>(fine, tf, sc, 7));
  registry.add("v0", *engines.back(), /*skill_tier=*/1);
  for (int v = 1; v < variants; ++v) {
    previews.push_back(std::make_unique<core::AerisModel>(cc, fine));
    engines.push_back(std::make_unique<core::ParallelEnsembleEngine>(
        *previews.back(), tf, sc, 7));
    registry.add("v" + std::to_string(v), *engines.back(), 0);
  }
  serving::ServerOptions opts;
  opts.workers = 2;
  opts.batch = 8;
  serving::ForecastServer server(registry, opts);
  Philox rng(8);
  Tensor fine_init({16, 16, 5});
  rng.fill_normal(fine_init, 1, 0);
  Tensor fine_forcing({16, 16, 2});
  rng.fill_normal(fine_forcing, 1, 1);
  Tensor coarse_init({8, 8, 5});
  rng.fill_normal(coarse_init, 1, 2);
  Tensor coarse_forcing({8, 8, 2});
  rng.fill_normal(coarse_forcing, 1, 3);
  const std::int64_t members = 4, steps = 2;
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        const bool coarse = c % variants != 0;
        serving::ForecastRequest req;
        req.init = coarse ? coarse_init : fine_init;
        req.forcings_at = [&, coarse](std::int64_t) {
          return coarse ? coarse_forcing : fine_forcing;
        };
        req.members = members;
        req.steps = steps;
        req.seed = static_cast<std::uint64_t>(c);
        req.model = "v" + std::to_string(c % variants);
        benchmark::DoNotOptimize(server.forecast(req));
      });
    }
    for (auto& t : pool) t.join();
  }
  state.SetItemsProcessed(state.iterations() * clients * members * steps);
}
BENCHMARK(BM_ForecastServerMultiModel)
    ->Args({2, 4})
    ->Args({2, 8})
    ->ArgNames({"variants", "clients"})
    ->UseRealTime();

// BM_ForecastServer's workload through the distributed front-end: the same
// requests admitted by the same ledger, but packs ride the SWiPe wire to
// worker ranks (encode, send, solve, result, commit). The delta against
// BM_ForecastServer at matching clients/members prices the wire.
void BM_ClusterForecastServer(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const int clients = static_cast<int>(state.range(1));
  const std::int64_t members = state.range(2);
  core::ModelConfig mc;
  mc.h = 16;
  mc.w = 16;
  mc.in_channels = 12;
  mc.out_channels = 5;
  mc.dim = 32;
  mc.depth = 2;
  mc.heads = 4;
  mc.ffn_hidden = 64;
  mc.win_h = 8;
  mc.win_w = 8;
  mc.cond_dim = 32;
  core::AerisModel model(mc, 1);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 4;
  sc.churn = 0.3f;
  core::ParallelEnsembleEngine engine(model, tf, sc, 7);
  serving::ClusterOptions co;
  co.ranks = ranks;
  co.serve.batch = 8;
  serving::ClusterForecastServer cluster(engine, co);
  Philox rng(8);
  Tensor init({16, 16, 5});
  rng.fill_normal(init, 1, 0);
  Tensor forcing({16, 16, 2});
  rng.fill_normal(forcing, 1, 1);
  core::ForcingFn forcings = [&](std::int64_t) { return forcing; };
  const std::int64_t steps = 2;
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        serving::ForecastRequest req;
        req.init = init;
        req.forcings_at = forcings;
        req.members = members;
        req.steps = steps;
        req.seed = static_cast<std::uint64_t>(c);
        benchmark::DoNotOptimize(cluster.forecast(req));
      });
    }
    for (auto& t : pool) t.join();
  }
  state.SetItemsProcessed(state.iterations() * clients * members * steps);
}
BENCHMARK(BM_ClusterForecastServer)
    ->Args({2, 4, 4})
    ->Args({3, 4, 4})
    ->Args({5, 8, 2})
    ->ArgNames({"ranks", "clients", "members"})
    ->UseRealTime();  // worker ranks compute; the driver only waits

// Prices elasticity. kills:0 runs BM_ClusterForecastServer's exact
// ranks:3/clients:4/members:4 workload on a rejoin-armed cluster — the
// membership lane, the spare parked rank and the per-send fault hook all
// idle alongside the hot path, so the delta against that disarmed row is
// the standing cost of being elastic (expected: in the noise). kills:1
// measures the full recovery cycle per iteration: construct the server
// with a scripted kill, lose the worker mid-request (typed drain + park),
// offer a replacement, wait for the un-park and complete a request — the
// end-to-end latency of membership collapse and repair.
void BM_ClusterRejoin(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const int kills = static_cast<int>(state.range(1));
  core::ModelConfig mc;
  mc.h = 16;
  mc.w = 16;
  mc.in_channels = 12;
  mc.out_channels = 5;
  mc.dim = 32;
  mc.depth = 2;
  mc.heads = 4;
  mc.ffn_hidden = 64;
  mc.win_h = 8;
  mc.win_w = 8;
  mc.cond_dim = 32;
  core::AerisModel model(mc, 1);
  core::TrigFlowConfig tf;
  core::TrigSamplerConfig sc;
  sc.steps = 4;
  sc.churn = 0.3f;
  core::ParallelEnsembleEngine engine(model, tf, sc, 7);
  Philox rng(8);
  Tensor init({16, 16, 5});
  rng.fill_normal(init, 1, 0);
  Tensor forcing({16, 16, 2});
  rng.fill_normal(forcing, 1, 1);
  core::ForcingFn forcings = [&](std::int64_t) { return forcing; };
  serving::ForecastRequest req;
  req.init = init;
  req.forcings_at = forcings;
  req.members = 4;
  req.steps = 2;
  req.seed = 3;

  if (kills == 0) {
    serving::ClusterOptions co;
    co.ranks = ranks;
    co.rejoin = true;
    co.max_ranks = ranks + 1;  // one parked spare slot
    co.serve.batch = 8;
    serving::ClusterForecastServer cluster(engine, co);
    const int clients = 4;
    for (auto _ : state) {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        pool.emplace_back([&, c] {
          serving::ForecastRequest r = req;
          r.seed = static_cast<std::uint64_t>(c);
          benchmark::DoNotOptimize(cluster.forecast(r));
        });
      }
      for (auto& t : pool) t.join();
    }
    state.SetItemsProcessed(state.iterations() * clients * req.members *
                            req.steps);
    return;
  }
  {
    for (auto _ : state) {
      serving::ClusterOptions co;
      co.ranks = ranks;
      co.min_quorum = ranks - 1;  // any death parks the server
      co.rejoin = true;
      co.serve.batch = 8;
      auto plan = std::make_shared<swipe::FaultPlan>();
      plan->add(swipe::FaultEvent{swipe::FaultKind::kKillRank, 1, 0});
      co.fault_plan = plan;
      serving::ClusterForecastServer cluster(engine, co);
      benchmark::DoNotOptimize(cluster.forecast(req));  // typed drain
      cluster.offer_worker();
      while (cluster.parked()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      benchmark::DoNotOptimize(cluster.forecast(req));  // completes
    }
  }
  state.SetItemsProcessed(state.iterations() * req.members * req.steps);
}
BENCHMARK(BM_ClusterRejoin)
    ->Args({3, 0})
    ->Args({2, 1})
    ->Args({3, 1})
    ->ArgNames({"ranks", "kills"})
    ->UseRealTime();  // park/rejoin latency is wall-clock, not driver CPU

// The few-step distillation payoff, measured at equal members/threads:
// consistency:0 runs the 10-step TrigFlow teacher (a skill-grade ODE step
// count), consistency:1 the 2-step consistency sampler over the same
// model. Items/s counts member-steps, so the row ratio is the serving
// speedup a distilled student buys — ~5x expected (10 vs 2 network
// evaluations per member-step); the perf gate is >=3x.
void BM_EnsembleRolloutFewStep(benchmark::State& state) {
  const std::int64_t members = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  const std::int64_t batch = state.range(2);
  const bool consistency = state.range(3) != 0;
  core::ModelConfig mc;
  mc.h = 16;
  mc.w = 16;
  mc.in_channels = 12;
  mc.out_channels = 5;
  mc.dim = 32;
  mc.depth = 2;
  mc.heads = 4;
  mc.ffn_hidden = 64;
  mc.win_h = 8;
  mc.win_w = 8;
  mc.cond_dim = 32;
  core::AerisModel model(mc, 1);
  core::TrigFlowConfig tf;
  std::optional<core::ParallelEnsembleEngine> engine;
  if (consistency) {
    core::ConsistencySamplerConfig cc;
    cc.steps = 2;
    engine.emplace(model, tf, cc, 7);
  } else {
    core::TrigSamplerConfig sc;
    sc.steps = 10;
    sc.churn = 0.3f;
    engine.emplace(model, tf, sc, 7);
  }
  Philox rng(8);
  Tensor init({16, 16, 5});
  rng.fill_normal(init, 1, 0);
  Tensor forcing({16, 16, 2});
  rng.fill_normal(forcing, 1, 1);
  core::ForcingFn forcings = [&](std::int64_t) { return forcing; };
  core::EnsembleOptions opts;
  opts.batch = batch;
  opts.threads = threads;
  const std::int64_t steps = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->ensemble_rollout(init, forcings, steps, members, opts));
  }
  state.SetItemsProcessed(state.iterations() * members * steps);
}
BENCHMARK(BM_EnsembleRolloutFewStep)
    ->Args({8, 2, 8, 0})
    ->Args({8, 2, 8, 1})
    ->ArgNames({"members", "threads", "batch", "consistency"})
    ->UseRealTime();

// BM_ForecastServer's clients:4/members:4 workload with the engine's
// default sampler as the variable: consistency:0 is the 10-step teacher,
// consistency:1 the 2-step student. Same >=3x gate as the rollout pair.
void BM_ForecastServerFewStep(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const std::int64_t members = state.range(1);
  const bool consistency = state.range(2) != 0;
  core::ModelConfig mc;
  mc.h = 16;
  mc.w = 16;
  mc.in_channels = 12;
  mc.out_channels = 5;
  mc.dim = 32;
  mc.depth = 2;
  mc.heads = 4;
  mc.ffn_hidden = 64;
  mc.win_h = 8;
  mc.win_w = 8;
  mc.cond_dim = 32;
  core::AerisModel model(mc, 1);
  core::TrigFlowConfig tf;
  std::optional<core::ParallelEnsembleEngine> engine;
  if (consistency) {
    core::ConsistencySamplerConfig cc;
    cc.steps = 2;
    engine.emplace(model, tf, cc, 7);
  } else {
    core::TrigSamplerConfig sc;
    sc.steps = 10;
    sc.churn = 0.3f;
    engine.emplace(model, tf, sc, 7);
  }
  serving::ServerOptions opts;
  opts.workers = 2;
  opts.batch = 8;
  serving::ForecastServer server(*engine, opts);
  Philox rng(8);
  Tensor init({16, 16, 5});
  rng.fill_normal(init, 1, 0);
  Tensor forcing({16, 16, 2});
  rng.fill_normal(forcing, 1, 1);
  core::ForcingFn forcings = [&](std::int64_t) { return forcing; };
  const std::int64_t steps = 2;
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        serving::ForecastRequest req;
        req.init = init;
        req.forcings_at = forcings;
        req.members = members;
        req.steps = steps;
        req.seed = static_cast<std::uint64_t>(c);
        benchmark::DoNotOptimize(server.forecast(req));
      });
    }
    for (auto& t : pool) t.join();
  }
  state.SetItemsProcessed(state.iterations() * clients * members * steps);
}
BENCHMARK(BM_ForecastServerFewStep)
    ->Args({4, 4, 0})
    ->Args({4, 4, 1})
    ->ArgNames({"clients", "members", "consistency"})
    ->UseRealTime();

void BM_TrigflowSamplerStep(benchmark::State& state) {
  core::TrigFlow tf(core::TrigFlowConfig{});
  core::DenoiserFn velocity = [](const Tensor& x, float) {
    return Tensor(x.shape());
  };
  core::TrigSamplerConfig cfg;
  cfg.steps = 6;
  Philox rng(6);
  std::uint64_t member = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::sample_trigflow(velocity, {32, 32, 10}, tf, cfg, rng, member++));
  }
}
BENCHMARK(BM_TrigflowSamplerStep);

}  // namespace

BENCHMARK_MAIN();
