#include "replay.hpp"

#include <atomic>
#include <span>
#include <vector>

#include "aeris/nn/adaln.hpp"
#include "aeris/nn/attention.hpp"
#include "aeris/nn/embedding.hpp"
#include "aeris/nn/rmsnorm.hpp"
#include "aeris/nn/swiglu.hpp"
#include "aeris/perf/arch.hpp"
#include "aeris/serving/cluster.hpp"
#include "aeris/serving/server.hpp"
#include "aeris/serving/wire.hpp"
#include "aeris/swipe/comm.hpp"
#include "aeris/tensor/gemm.hpp"
#include "aeris/tensor/rng.hpp"
#include "aeris/tensor/thread_pool.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using aeris::Tensor;

/// Median wall time (ms) of `f` over at least `min_reps` calls and until
/// `budget_ms` has passed, after one untimed warm-up call. Every timed
/// call is a span named `span`.
template <class F>
double median_ms(const char* span, double budget_ms, int min_reps, F&& f) {
  f();
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(times.size()) < min_reps ||
         (ms_between(start, Clock::now()) < budget_ms && times.size() < 2000)) {
    Scope s(span);
    const Clock::time_point a = Clock::now();
    f();
    times.push_back(ms_between(a, Clock::now()));
  }
  return median(std::move(times));
}

std::vector<aeris::core::MemberSlot> make_slots(const Inputs& inputs,
                                                std::int64_t n) {
  std::vector<aeris::core::MemberSlot> slots(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::size_t e = static_cast<std::size_t>(i) % inputs.inits.size();
    slots[static_cast<std::size_t>(i)].prev = &inputs.inits[e];
    slots[static_cast<std::size_t>(i)].forcings = &inputs.forcings[e];
    slots[static_cast<std::size_t>(i)].noise = {
        0x5EEDull, static_cast<std::uint64_t>(i) * 4096};
  }
  return slots;
}

aeris::perf::ArchShape arch_of(const aeris::core::ModelConfig& mc) {
  aeris::perf::ArchShape a;
  a.dim = mc.dim;
  a.heads = mc.heads;
  a.ffn = mc.ffn_hidden;
  a.swin_layers = mc.depth;
  a.blocks_per_layer = 1;
  a.h = mc.h;
  a.w = mc.w;
  a.window = mc.win_h;  // square windows
  a.in_channels = mc.in_channels;
  a.out_channels = mc.out_channels;
  a.cond_dim = mc.cond_dim;
  return a;
}

void add_core_and_nn(const ReplayInput& in, Outcome& out) {
  namespace nn = aeris::nn;
  const aeris::core::ModelConfig& mc = in.model.config();
  const std::int64_t e = in.pack_size;
  const std::int64_t wins = e * mc.windows();
  const std::int64_t tok = mc.tokens_per_window();
  const double depth = static_cast<double>(mc.depth);
  const aeris::Philox rng(77);

  // Stacked solver steps at the pack sizes a server forms.
  std::vector<double> step_ms;
  for (std::int64_t n : {1, 2, 4, 8}) {
    const auto slots = make_slots(in.inputs, n);
    step_ms.push_back(median_ms("core.step_pack", 600.0, 3, [&] {
      in.engine.step_pack(std::span<const aeris::core::MemberSlot>(slots));
    }));
    out.add("core.step_pack_ms.E" + std::to_string(n), step_ms.back(), "ms");
  }
  out.add("core.stack_efficiency", 8.0 * step_ms.front() / step_ms.back(),
          "ratio");

  Tensor x({e, mc.h, mc.w, mc.in_channels});
  rng.fill_normal(x, 31, 0);
  Tensor t({e});
  rng.fill_uniform(t, 32, 0, 0.1f, 1.5f);
  Tensor win({wins, tok, mc.dim});
  rng.fill_normal(win, 33, 0);
  Tensor grid({e, mc.h, mc.w, mc.dim});
  rng.fill_normal(grid, 34, 0);
  Tensor cond({e, mc.cond_dim});
  rng.fill_normal(cond, 35, 0);

  const double forward_ms = median_ms("core.forward", 500.0, 5, [&] {
    in.model.forward(x, t);
  });

  nn::FwdCtx ctx(nn::FwdCtx::Mode::kInference);
  nn::Linear embed("replay.embed", mc.in_channels, mc.dim);
  embed.init(rng, 1);
  nn::TimeEmbedding time_embed("replay.time", mc.time_features, mc.cond_dim);
  time_embed.init(rng, 2);
  nn::AdaLNHead adaln("replay.adaln", mc.cond_dim, mc.dim);
  nn::RMSNorm norm("replay.norm", mc.dim, /*elementwise_affine=*/false);
  nn::RMSNorm final_norm("replay.final_norm", mc.dim);
  nn::WindowAttention attn("replay.attn", mc.dim, mc.heads, mc.win_h,
                           mc.win_w);
  attn.init(rng, 3);
  nn::SwiGLU ffn("replay.ffn", mc.dim, mc.ffn_hidden);
  ffn.init(rng, 4);
  nn::Linear head("replay.head", mc.dim, mc.out_channels);
  head.init(rng, 5);

  // Per forward: one embed, time trunk, final norm and head; per block two
  // AdaLN heads, two RMSNorms, one attention and one SwiGLU.
  const double budget = 250.0;
  const double embed_ms =
      median_ms("nn.embed", budget, 5, [&] { embed.forward(x, ctx); });
  const double time_ms = median_ms("nn.time_embed", budget, 5,
                                   [&] { time_embed.forward(t, ctx); });
  const double adaln_ms =
      2.0 * depth *
      median_ms("nn.adaln", budget, 5, [&] { adaln.forward(cond, ctx); });
  const double rms_ms =
      2.0 * depth *
          median_ms("nn.rmsnorm", budget, 5, [&] { norm.forward(win, ctx); }) +
      median_ms("nn.rmsnorm", budget, 5,
                [&] { final_norm.forward(grid, ctx); });
  const double attn_ms =
      depth * median_ms("nn.attention", budget, 5,
                        [&] { attn.forward(win, ctx); });
  const double ffn_ms =
      depth *
      median_ms("nn.swiglu", budget, 5, [&] { ffn.forward(win, ctx); });
  const double head_ms =
      median_ms("nn.head", budget, 5, [&] { head.forward(grid, ctx); });

  const double layers_ms =
      embed_ms + time_ms + adaln_ms + rms_ms + attn_ms + ffn_ms + head_ms;
  out.add("core.forward_ms", forward_ms, "ms");
  out.add("core.forward_unattributed_share",
          (forward_ms - layers_ms) / forward_ms, "share");
  out.add("nn.embed_ms", embed_ms, "ms");
  out.add("nn.time_embed_ms", time_ms, "ms");
  out.add("nn.adaln_ms", adaln_ms, "ms");
  out.add("nn.rmsnorm_ms", rms_ms, "ms");
  out.add("nn.attention_ms", attn_ms, "ms");
  out.add("nn.swiglu_ms", ffn_ms, "ms");
  out.add("nn.head_ms", head_ms, "ms");

  // Analytic counts: stage_forward_flops of a one-block stage is one
  // block's qkv + window scores/apply + proj + SwiGLU; with ffn = 0 it is
  // the attention part alone.
  const aeris::perf::ArchShape arch = arch_of(mc);
  aeris::perf::ArchShape no_ffn = arch;
  no_ffn.ffn = 0;
  const double attn_flops = aeris::perf::stage_forward_flops(no_ffn);
  const double ffn_flops = aeris::perf::stage_forward_flops(arch) - attn_flops;
  const double ed = static_cast<double>(e);
  out.add("nn.attention.gflops", attn_flops * depth * ed / (attn_ms * 1e6),
          "GFLOP/s");
  out.add("nn.swiglu.gflops", ffn_flops * depth * ed / (ffn_ms * 1e6),
          "GFLOP/s");
  out.add("perf.forward_gflop_per_member",
          aeris::perf::forward_flops_per_sample(arch) * 1e-9, "GFLOP");

  // The largest forward GEMM: the qkv projection, [E*tokens, dim] x
  // [dim, 3*dim], through the same entry point Linear uses.
  const std::int64_t m = e * mc.h * mc.w;
  const std::int64_t n = 3 * mc.dim;
  const std::int64_t k = mc.dim;
  Tensor a({m, k}), b({n, k}), c({m, n});
  rng.fill_normal(a, 36, 0);
  rng.fill_normal(b, 37, 0);
  const double gemm_ms = median_ms("tensor.gemm", budget, 5, [&] {
    aeris::gemm(false, true, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
                c.data(), n);
  });
  out.add("tensor.gemm_gflops",
          2.0 * static_cast<double>(m) * n * k / (gemm_ms * 1e6), "GFLOP/s");
}

void add_wire(const ReplayInput& in, Outcome& out) {
  namespace wire = aeris::serving::wire;
  const aeris::core::ModelConfig& mc = in.model.config();
  const auto slots = make_slots(in.inputs, in.pack_size);
  std::vector<Tensor> next;
  for (const auto& s : slots) next.push_back(*s.prev);
  const std::span<const aeris::core::MemberSlot> sp(slots);

  std::vector<float> pack, result;
  const double enc_pack = median_ms("swipe.encode_pack", 150.0, 20, [&] {
    pack = wire::encode_pack(1, 0, aeris::core::SamplerKind::kDpmSolver, 0,
                             sp, mc.h, mc.w, kStateChannels,
                             kForcingChannels);
  });
  const double enc_result = median_ms("swipe.encode_result", 150.0, 20, [&] {
    result = wire::encode_result(1, std::span<const Tensor>(next));
  });
  const double dec_pack = median_ms("swipe.decode_pack", 150.0, 20,
                                    [&] { wire::decode_pack(pack); });
  const double dec_result = median_ms("swipe.decode_result", 150.0, 20,
                                      [&] { wire::decode_result(result); });
  out.add("swipe.wire_encode_us", 1e3 * (enc_pack + enc_result), "us");
  out.add("swipe.wire_decode_us", 1e3 * (dec_pack + dec_result), "us");
  out.add("swipe.wire_floats_per_pack",
          static_cast<double>(pack.size() + result.size()), "count");

  // 2-rank ping-pong of the pack payload through the SWiPe mailbox.
  constexpr int kReps = 300;
  constexpr std::uint64_t kTag = 0xBE7C;
  std::vector<double> rtt;
  aeris::swipe::World world(2);
  world.run([&](int rank) {
    std::vector<float> msg = pack;
    for (int i = 0; i < kReps; ++i) {
      if (rank == 0) {
        Scope s("swipe.p2p_roundtrip");
        const Clock::time_point a = Clock::now();
        world.send(0, 1, kTag, std::move(msg));
        msg = world.recv(0, 1, kTag);
        rtt.push_back(1e3 * ms_between(a, Clock::now()));
      } else {
        world.send(1, 0, kTag, world.recv(1, 0, kTag));
      }
    }
  });
  out.add("swipe.p2p_roundtrip_us", median(rtt), "us");
}

/// Closed-loop p50 of a one-step request of the workload's pack size
/// through each front-end on the workload's engine. Each request is one
/// pack, so the difference is what the wire path (encode, send, decode,
/// lease, polling) adds per pack, without the workload's contention.
void add_cluster_overhead(const ReplayInput& in, Outcome& out) {
  aeris::serving::ServerOptions so;
  so.workers = 2;
  so.batch = 8;
  aeris::serving::ClusterOptions co;
  co.ranks = 3;
  co.serve.batch = 8;
  aeris::serving::ForecastRequest req;
  req.init = in.inputs.inits[0];
  req.forcings_at = in.inputs.forcing_fn(0);
  req.members = in.pack_size;
  req.steps = 1;
  req.seed = 99;
  double local_ms = 0.0;
  double cluster_ms = 0.0;
  {
    aeris::serving::ForecastServer local(in.engine, so);
    local_ms = median_ms("serving.forecast_local", 1500.0, 5,
                         [&] { local.forecast(req); });
  }
  {
    aeris::serving::ClusterForecastServer cluster(in.engine, co);
    cluster_ms = median_ms("serving.forecast_cluster", 1500.0, 5,
                           [&] { cluster.forecast(req); });
  }
  out.add("swipe.cluster_overhead_p50_ms", cluster_ms - local_ms, "ms");
}

}  // namespace

void add_replay_metrics(const ReplayInput& in, Outcome& out) {
  {
    Scope root("replay.layers");
    aeris::SerialRegionGuard inline_kernels;
    add_core_and_nn(in, out);
  }
  {
    Scope root("replay.wire");
    add_wire(in, out);
    add_cluster_overhead(in, out);
  }
  {
    // The excluded default path: a fork-join over the global kernel pool.
    Scope root("replay.pool");
    std::atomic<std::int64_t> sink{0};
    const double ms = median_ms("tensor.pool_dispatch", 200.0, 50, [&] {
      aeris::parallel_for(4, [&](std::int64_t b, std::int64_t e) {
        sink.fetch_add(e - b, std::memory_order_relaxed);
      });
    });
    out.add("tensor.pool_dispatch_us", 1e3 * ms, "us");
  }
}

}  // namespace perfbench
