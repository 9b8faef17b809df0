#include "aeris/serving/server.hpp"

#include <chrono>
#include <span>
#include <utility>

#include "aeris/tensor/thread_pool.hpp"

namespace aeris::serving {

namespace {

std::unique_ptr<ModelRegistry> make_default_registry(
    const core::ParallelEnsembleEngine& engine) {
  auto r = std::make_unique<ModelRegistry>();
  r->add("default", engine);
  return r;
}

}  // namespace

ForecastServer::ForecastServer(const ModelRegistry& registry,
                               const ServerOptions& opts)
    : registry_(registry), ledger_(registry_, opts) {
  start_workers();
}

ForecastServer::ForecastServer(const core::ParallelEnsembleEngine& engine,
                               const ServerOptions& opts)
    : owned_registry_(make_default_registry(engine)),
      registry_(*owned_registry_),
      ledger_(registry_, opts) {
  start_workers();
}

void ForecastServer::start_workers() {
  const int workers = ledger_.options().workers;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ForecastServer::~ForecastServer() { stop(); }

void ForecastServer::stop() {
  if (!ledger_.begin_stop()) return;
  for (std::thread& t : workers_) t.join();
  workers_.clear();

  // Workers are gone, so nothing is in flight: every request still active
  // terminates here with a typed error — clients never hang on shutdown.
  ledger_.drain_all(RequestStatus::kRejected,
                    "server shut down before request completed");
}

ServerStats ForecastServer::stats() const { return ledger_.stats(); }

ForecastResult ForecastServer::forecast(const ForecastRequest& req) {
  // Routing and shape validation happen inside admit: routing failures
  // come back as typed RejectedError{kUnsupported} results, malformed
  // requests still throw std::invalid_argument.
  std::future<ForecastResult> future;
  ForecastResult refused;
  if (ledger_.admit(req, ledger_.options().workers, future, refused)) {
    return refused;
  }
  return future.get();
}

void ForecastServer::worker_loop(int worker_index) {
  // With several workers the shared kernel pool cannot be dispatched to
  // concurrently (single job descriptor); each worker runs its kernels
  // inline, which is bitwise-identical (kernels split independent rows).
  std::unique_ptr<SerialRegionGuard> guard;
  if (ledger_.options().workers > 1) {
    guard = std::make_unique<SerialRegionGuard>();
  }
  (void)worker_index;

  using Clock = detail::Clock;
  for (;;) {
    if (!ledger_.wait_for_work(std::chrono::milliseconds(10))) return;
    std::vector<PackItem> items = ledger_.take_pack(ledger_.options().batch);
    if (items.empty()) {
      // Only backoff-gated (or no) cursors right now; don't spin on the
      // mutex while the gates run down.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }

    // --- Outside the ledger lock: fetch forcings, solve. The in-flight
    // members' init/traj tensors are stable: finalization is deferred
    // while inflight > 0 and no other item touches the same member.
    const Clock::time_point t0 = Clock::now();
    FetchedForcings ff = fetch_forcings(items);

    PackOutcome out;
    out.item_error = std::move(ff.error);

    std::vector<std::size_t> solved;  // item indices that entered the solve
    std::vector<core::MemberSlot> slots;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (ff.of[i] == nullptr) continue;
      core::MemberSlot slot;
      slot.prev = items[i].prev;
      slot.forcings = ff.of[i];
      slot.noise = items[i].noise;
      slots.push_back(slot);
      solved.push_back(i);
    }

    std::vector<Tensor> next;
    if (!slots.empty()) {
      // Packs are pure (take_pack groups by engine): every item in this
      // pack runs on the same registry variant.
      const core::ParallelEnsembleEngine& eng =
          *items[solved.front()].a->engine;
      const core::SamplerKind kind = items[solved.front()].a->sampler;
      const int request_steps = items[solved.front()].a->solver_steps;
      const int override_steps =
          request_steps == eng.solver_steps(kind) ? 0 : request_steps;
      try {
        next = eng.step_pack(std::span<const core::MemberSlot>(slots),
                             override_steps, kind);
      } catch (...) {
        out.solve_error = std::current_exception();
      }
    }

    // Scatter compacted solve results back to item positions.
    out.next.resize(items.size());
    if (out.solve_error == nullptr) {
      for (std::size_t k = 0; k < solved.size() && k < next.size(); ++k) {
        out.next[solved[k]] = std::move(next[k]);
      }
    }
    out.pack_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                      .count();
    out.solved_count = static_cast<std::int64_t>(slots.size());

    ledger_.commit_pack(std::move(items), std::move(out));
  }
}

}  // namespace aeris::serving
