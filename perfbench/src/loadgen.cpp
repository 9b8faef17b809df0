#include "loadgen.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>

#include "aeris/tensor/rng.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// Requests per stratum and their member counts: {1: 1/5, 2: 3/5, 4: 1/5}.
// p50 falls in the middle of the 2-member latency mode and p90 in the
// middle of the 4-member one, not on the edge between two modes.
constexpr std::size_t kBlock = 10;
constexpr std::array<std::int64_t, kBlock> kBlockMembers = {1, 1, 2, 2, 2,
                                                            2, 2, 2, 4, 4};

}  // namespace

std::vector<Planned> make_schedule(std::uint64_t seed, double rate_per_s,
                                   double seconds, std::int64_t steps) {
  const aeris::Philox rng(seed);
  const std::size_t blocks = static_cast<std::size_t>(
      std::max(1.0, std::round(rate_per_s * seconds / kBlock)));
  const double block_ms = 1000.0 * seconds / static_cast<double>(blocks);
  std::vector<Planned> plan;
  plan.reserve(blocks * kBlock);
  for (std::size_t b = 0; b < blocks; ++b) {
    // kBlock arrivals i.i.d. uniform over the block, sorted.
    std::array<double, kBlock> due{};
    for (std::size_t j = 0; j < kBlock; ++j) {
      due[j] = block_ms * (static_cast<double>(b) +
                           rng.uniform(21, b, j));
    }
    std::sort(due.begin(), due.end());
    // The block's exact member multiset, Fisher-Yates shuffled.
    std::array<std::int64_t, kBlock> members = kBlockMembers;
    for (std::size_t i = kBlock; i > 1; --i) {
      const std::size_t j = std::min<std::size_t>(
          i - 1, static_cast<std::size_t>(rng.uniform(22, b, i) * i));
      std::swap(members[i - 1], members[j]);
    }
    for (std::size_t j = 0; j < kBlock; ++j) {
      const auto words = rng.raw(23, b, j);
      Planned p;
      p.due_ms = due[j];
      p.members = members[j];
      p.steps = steps;
      p.seed = (std::uint64_t{words[0]} << 32) | words[1];
      p.entry = static_cast<int>(words[2] % kInputPool);
      plan.push_back(p);
    }
  }
  return plan;
}

LoadRun run_open_loop(const std::vector<Planned>& plan, const Inputs& inputs,
                      const ForecastCall& call, int threads,
                      const std::set<std::size_t>& keep) {
  LoadRun out;
  out.served.resize(plan.size());
  std::mutex keep_mu;
  std::atomic<std::size_t> next{0};
  std::atomic<int> inflight{0};
  std::atomic<int> inflight_max{0};
  Tracer& tracer = Tracer::get();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);

  auto generator = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= plan.size()) return;
      const Planned& p = plan[i];
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(p.due_ms));
      std::this_thread::sleep_until(due);

      aeris::serving::ForecastRequest req;
      req.init = inputs.inits[static_cast<std::size_t>(p.entry)];
      req.forcings_at = inputs.forcing_fn(p.entry);
      req.members = p.members;
      req.steps = p.steps;
      req.seed = p.seed;

      const int now_inflight = inflight.fetch_add(1) + 1;
      int seen = inflight_max.load();
      while (now_inflight > seen &&
             !inflight_max.compare_exchange_weak(seen, now_inflight)) {
      }
      Served& s = out.served[i];
      aeris::serving::ForecastResult r;
      {
        Scope span("serving.forecast", i + 1);
        const std::int64_t sent_ns = tracer.now_ns();
        s.sent_ms = ms_between(t0, Clock::now());
        try {
          r = call(req);
        } catch (const std::exception& e) {
          // Only malformed requests throw; count it as a failed request.
          r.status = aeris::serving::RequestStatus::kFault;
          r.error_message = e.what();
        }
        s.done_ms = ms_between(t0, Clock::now());
        if (tracer.armed()) {
          const auto qw = static_cast<std::int64_t>(r.queue_wait_ms * 1e6);
          const auto total = static_cast<std::int64_t>(r.total_ms * 1e6);
          tracer.record_derived("serving.queue_wait", sent_ns, sent_ns + qw,
                                span.id(), i + 1);
          tracer.record_derived("serving.service", sent_ns + qw,
                                sent_ns + total, span.id(), i + 1);
        }
      }
      inflight.fetch_sub(1);
      s.due_ms = p.due_ms;
      s.queue_wait_ms = r.queue_wait_ms;
      s.total_ms = r.total_ms;
      s.ok = r.ok();
      s.member_steps = r.ok() ? p.members * p.steps : 0;
      if (keep.count(i) != 0) {
        std::lock_guard<std::mutex> lock(keep_mu);
        out.kept.emplace_back(i, std::move(r));
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(generator);
  for (std::thread& t : pool) t.join();

  out.inflight_max = inflight_max.load();
  for (const Served& s : out.served) {
    out.window_ms = std::max(out.window_ms, s.done_ms);
  }
  return out;
}

}  // namespace perfbench
