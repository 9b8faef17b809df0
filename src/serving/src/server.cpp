#include "aeris/serving/server.hpp"

#include <chrono>
#include <utility>

#include "aeris/tensor/thread_pool.hpp"

namespace aeris::serving {

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
    workers_.emplace_back([this] { worker_loop(); });
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

void ForecastServer::worker_loop() {
  // With several workers the shared kernel pool cannot be dispatched to
  // concurrently (single job descriptor); each worker runs its kernels
  // inline, which is bitwise-identical (kernels split independent rows).
  std::unique_ptr<SerialRegionGuard> guard;
  if (ledger_.options().workers > 1) {
    guard = std::make_unique<SerialRegionGuard>();
  }

  using Clock = detail::Clock;
  for (;;) {
    if (!ledger_.wait_for_work(std::chrono::milliseconds(10))) return;
    const Clock::time_point t0 = Clock::now();
    Pack pack = ledger_.checkout(ledger_.options().batch);
    if (pack.items.empty()) {
      // Only backoff-gated (or no) cursors right now; don't spin on the
      // mutex while the gates run down.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    PackOutcome out;
    try {
      out.next = pack.engine->step_pack(pack.slots, pack.solver_steps_override,
                                        pack.sampler);
    } catch (...) {
      out.solve_error = std::current_exception();
    }
    out.pack_ms = detail::ms_between(t0, Clock::now());
    ledger_.commit_pack(std::move(pack.items), std::move(out));
  }
}

}  // namespace aeris::serving
