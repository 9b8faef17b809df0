#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "aeris/core/ensemble.hpp"
#include "aeris/serving/errors.hpp"
#include "aeris/serving/ledger.hpp"
#include "aeris/serving/registry.hpp"
#include "aeris/serving/types.hpp"

namespace aeris::serving {

/// Batched forecast front-end over a ModelRegistry of engine variants
/// (single-engine servers are the one-variant special case).
///
/// Many client threads call forecast() concurrently; each request routes
/// to a registry variant (by name, quality class, or the default) and the
/// server packs members *across requests on the same variant* into stacked
/// [E, H, W, C] solver steps — packs never mix models or sampler families
/// — so the model always sees full batches, and every request terminates
/// with a result or a typed error — never a hang, never a crash:
///
///  - Admission is bounded (queue_capacity); overload is shed with
///    RejectedError{kQueueFull} instead of growing latency unboundedly.
///  - Deadlines are enforced between forecast steps (the stacked solve is
///    the atomic unit); expiry yields kDeadlineExceeded, optionally with
///    the partial trajectory.
///  - DegradePolicy trades solver steps / members for latency under load,
///    reported in the response.
///  - Transient faults (forcing fn or model call throwing) retry with
///    capped exponential backoff + deterministic jitter, then fail as
///    kFault.
///  - Numerical quarantine: each member state is checked with
///    tensor::all_finite after every step; a diverged member is retried
///    once on a fresh (salted-seed) noise stream, then reported as a
///    NumericalError in its MemberReport — batch-mates are unaffected
///    because kernels never mix batch slabs.
///
/// The policy stack itself lives in RequestLedger (shared with the
/// distributed ClusterForecastServer); this class supplies the execution
/// substrate: worker threads that check packs out of the ledger, run
/// engine.step_pack on them in-process, and commit the outcome.
///
/// Determinism: an unstressed request (no quarantine, no degradation) gets
/// trajectories bitwise-identical to the serial DiffusionForecaster with
/// the same model/configs/seed, whatever the packing or worker count.
class ForecastServer {
 public:
  /// Registry-backed router: the registry (frozen, >= 1 variant) and its
  /// engines must outlive the server.
  ForecastServer(const ModelRegistry& registry,
                 const ServerOptions& opts = {});
  /// Single-engine convenience: builds an owned one-variant registry named
  /// "default" around `engine`. Plain requests (empty model, kAny) behave
  /// exactly as before the registry existed.
  ForecastServer(const core::ParallelEnsembleEngine& engine,
                 const ServerOptions& opts = {});
  ~ForecastServer();

  ForecastServer(const ForecastServer&) = delete;
  ForecastServer& operator=(const ForecastServer&) = delete;

  /// Blocks until the request terminates; never throws for flow-control
  /// outcomes (rejection, deadline, divergence, faults) — those come back
  /// as the result's status + error. Throws std::invalid_argument only for
  /// malformed requests (wrong shapes, null forcing fn).
  ForecastResult forecast(const ForecastRequest& req);

  /// Stops the workers and finalizes every in-flight request with
  /// RejectedError{kShutdown}. Idempotent; called by the destructor.
  void stop();

  ServerStats stats() const;

 private:
  void start_workers();
  void worker_loop();

  /// Set only by the single-engine ctor; registry_ points at it then.
  std::unique_ptr<ModelRegistry> owned_registry_;
  const ModelRegistry& registry_;
  RequestLedger ledger_;
  std::vector<std::thread> workers_;
};

}  // namespace aeris::serving
