#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "aeris/core/ensemble.hpp"
#include "aeris/serving/health.hpp"
#include "aeris/serving/ledger.hpp"
#include "aeris/serving/registry.hpp"
#include "aeris/serving/types.hpp"
#include "aeris/swipe/comm.hpp"
#include "aeris/swipe/fault.hpp"

namespace aeris::serving {

/// ClusterForecastServer tuning, on top of the shared ServerOptions policy
/// stack. from_env() overlays the AERIS_SERVE_RANKS /
/// AERIS_SERVE_HEARTBEAT_MS / AERIS_SERVE_LEASE_MS / AERIS_SERVE_QUORUM
/// knobs documented in the README. The server's constructor checks the
/// invariants stated below and throws std::invalid_argument naming the
/// field and its value; nothing is silently clamped.
struct ClusterOptions {
  /// World size per incarnation: rank 0 is the serving front-end, ranks
  /// 1..ranks-1 are worker ranks. Must be >= 2 (one worker).
  int ranks = 3;
  /// Minimum alive worker ranks to keep serving. When deaths shrink the
  /// cluster below this, in-flight requests are drained with kWorkerLost
  /// and admissions are refused from then on. Must be >= 1.
  int min_quorum = 1;
  /// Workers send a liveness heartbeat this often; <= 0 disables
  /// heartbeats entirely. Deterministic FaultPlan drills need them off:
  /// heartbeat sends are timer-driven and would make the plan's
  /// nth-send ordinals nondeterministic.
  double heartbeat_interval_ms = 0.0;
  /// A worker whose last message (heartbeat or result) is older than this
  /// is eligible for death-by-timeout; <= 0 disables the detector.
  double heartbeat_timeout_ms = 0.0;
  /// A leased pack outstanding longer than this marks its worker dead
  /// (when the heartbeat detector, if enabled, also finds it stale); the
  /// front-end poisons the world on the hung rank's behalf, so even a
  /// rank that never throws — wedged, not crashed — triggers the requeue
  /// path. <= 0 disables lease expiry.
  double lease_timeout_ms = 0.0;
  /// Max packs leased to one worker at a time (pipeline depth); >= 1.
  std::int64_t max_outstanding_packs = 2;
  /// The shared serving policy stack (admission, deadlines, degradation,
  /// retries, quarantine).
  ServerOptions serve{};
  /// Deterministic fault drill: armed on the *first* incarnation's world
  /// only, so the recovery incarnations run clean. Send-side events count
  /// a rank's sends (results, heartbeats, join announces); receive-side
  /// events (FaultEvent::on_recv) count the packs and membership messages
  /// it takes. A receive-side kDelayMsg on a worker hangs it while it
  /// holds the pack's lease; a latched receive-side kKillRank kills it on
  /// its first pack, or on its next receive once another death poisoned
  /// the world, as an originating failure either way.
  std::shared_ptr<const swipe::FaultPlan> fault_plan;

  /// Elastic membership. When true, dead capacity is not forever: callers
  /// offer replacement workers via offer_worker(), a below-quorum park
  /// waits for membership to recover instead of refusing admissions until
  /// process restart, and every incarnation's world carries spare parked
  /// rank slots joiners activate mid-flight. AERIS_SERVE_REJOIN.
  bool rejoin = false;
  /// Joiner probation: an admitted joiner must stay clean (fresh
  /// heartbeats when heartbeats are on) for this long before the
  /// front-end leases it work; <= 0 makes admission immediate.
  /// AERIS_SERVE_PROBATION_MS.
  double probation_ms = 0.0;
  /// Upper bound on the world size (front-end + workers) the cluster may
  /// grow to by admitting fresh ranks; <= 0 means `ranks` (rejoin can
  /// then only replace dead capacity, not grow past the initial size), and
  /// a positive value must be >= `ranks`. AERIS_SERVE_MAX_RANKS.
  int max_ranks = 0;

  static ClusterOptions from_env();
};

/// Distributed forecast serving over SWiPe ranks with worker-death
/// recovery.
///
/// One front-end rank admits ForecastRequests through the same
/// RequestLedger policy stack as the single-process ForecastServer and
/// leases cross-request member packs to worker ranks on an in-process
/// SWiPe World; each worker runs step_pack on the shared read-only engine
/// and streams results back over nonblocking serving-class messages.
///
/// Robustness model (incarnations): a worker rank that dies mid-pack — a
/// deterministic FaultPlan kill, an escaped exception, or a hang caught by
/// the heartbeat/lease monitor — poisons the world; every rank unwinds,
/// World::run reports per-rank failures, and the manager thread
/// * classifies the dead (originating, non-secondary failures, plus
///   timeout suspects),
/// * requeues every leased-but-uncommitted pack item (the members resume
///   from their last committed step; the member-keyed noise contract
///   makes the re-execution bitwise-identical wherever it lands),
/// * re-forms a World over the survivors and resumes serving, with the
///   backlog estimate divided by the shrunken capacity.
/// Below min_quorum the server parks: in-flight requests drain with typed
/// kWorkerLost errors and future admissions are refused the same way.
///
/// Elastic membership (opts.rejoin): membership can also grow back. Each
/// incarnation's world carries parked spare rank slots; offer_worker()
/// queues capacity (a recovered rank, or a brand-new one) and the
/// front-end admits it mid-flight through a join protocol on the
/// membership lane — invite, fingerprint announce, verdict. A joiner's
/// announced ModelRegistry fingerprint must match the frozen registry
/// before the rank is ever leased work (mismatches are refused and
/// counted); an optional probation window then gates leasing on clean
/// heartbeats. Every world re-formation bumps the incarnation number, so
/// recovered capacity always re-admits under a fresh incarnation. A
/// parked below-quorum server un-parks automatically once admitted
/// membership reaches quorum again: admissions resume in the ledger,
/// while requests drained during the outage keep their typed kWorkerLost
/// errors.
///
/// Determinism: an unstressed request's trajectories are bitwise-identical
/// to the single-process ForecastServer (and the serial
/// DiffusionForecaster) with the same model/configs/seed, for every rank
/// count, packing, and worker-death schedule.
class ClusterForecastServer {
 public:
  /// Registry-backed router: the front-end routes each request to a
  /// variant; packs travel with the variant's registry index in the wire
  /// header, and every worker rank resolves the engine from the same
  /// (process-shared) registry — its local replica. The registry (frozen,
  /// >= 1 variant) and its engines must outlive the server.
  /// Throws std::invalid_argument when `opts` breaks a ClusterOptions
  /// invariant.
  ClusterForecastServer(const ModelRegistry& registry,
                        const ClusterOptions& opts = {});
  /// Single-engine convenience: builds an owned one-variant registry named
  /// "default" around `engine`.
  ClusterForecastServer(const core::ParallelEnsembleEngine& engine,
                        const ClusterOptions& opts = {});
  ~ClusterForecastServer();

  ClusterForecastServer(const ClusterForecastServer&) = delete;
  ClusterForecastServer& operator=(const ClusterForecastServer&) = delete;

  /// Blocks until the request terminates; same contract as
  /// ForecastServer::forecast, plus kWorkerLost outcomes when the cluster
  /// fell below quorum while the request was in flight.
  ForecastResult forecast(const ForecastRequest& req);

  /// Stops serving and finalizes every in-flight request with
  /// RejectedError{kShutdown}. Idempotent; called by the destructor.
  void stop();

  ServerStats stats() const;

  /// Worker ranks currently believed alive (capacity the degradation
  /// estimate divides by).
  int alive_workers() const {
    return alive_workers_.load(std::memory_order_relaxed);
  }

  /// Elastic membership: offers one worker's capacity to the cluster — a
  /// recovered rank rejoining or a brand-new rank. `announced_fingerprint`
  /// is the ModelRegistry fingerprint the joiner will announce during the
  /// join handshake (0 = announce the in-process replica's own, which
  /// always matches; tests pass a skewed value to drive the reject path).
  /// The front-end validates the announce against the frozen registry
  /// before the rank is ever leased work. Returns false when elastic
  /// membership is off, the server is stopping, or the cluster (alive +
  /// already-offered) is at max_ranks capacity.
  bool offer_worker(std::uint64_t announced_fingerprint = 0);

  /// Incarnation number of the current world; bumps on every membership
  /// re-formation (death rebuild or recovery), so joiners always admit
  /// under a fresh incarnation.
  std::uint64_t incarnation() const {
    return incarnation_.load(std::memory_order_relaxed);
  }

  /// True while the server is parked below quorum (admissions refused,
  /// waiting for offered capacity). Always false when rejoin is off — the
  /// legacy park is terminal and the manager has already returned.
  bool parked() const { return parked_.load(std::memory_order_relaxed); }

 private:
  /// A pack leased to a worker: the checked-out items plus the send time
  /// (front-end-side latency feeds the backlog EMA).
  struct Lease {
    std::vector<PackItem> items;
    detail::Clock::time_point sent{};
  };

  /// Both public constructors delegate here; `owned` is set only by the
  /// single-engine one, and registry_ then points at it instead of
  /// `shared`.
  ClusterForecastServer(std::unique_ptr<ModelRegistry> owned,
                        const ModelRegistry* shared,
                        const ClusterOptions& opts);

  void manager_loop();
  void frontend_loop(swipe::World& world);
  /// Every rank above the front-end runs here, from parked through
  /// announced to serving: a parked spare (serving = false) answers an
  /// invite with its registry fingerprint and becomes a worker on an
  /// accept verdict (a reject re-parks it); a worker heartbeats, steps
  /// the packs it is leased and returns their results. Shutdown ends it.
  void rank_loop(swipe::World& world, int rank, bool serving);
  /// Checks a pack out of the ledger, encodes its slots and sends them to
  /// `worker_rank`, opening a lease. Returns false when there was nothing
  /// to dispatch.
  bool dispatch_pack(swipe::World& world, HeartbeatMonitor& monitor,
                     int worker_rank);

  /// Set only by the single-engine ctor; registry_ points at it then.
  std::unique_ptr<ModelRegistry> owned_registry_;
  const ModelRegistry& registry_;
  ClusterOptions opts_;
  RequestLedger ledger_;
  std::atomic<int> alive_workers_;
  /// World rank the front-end declared dead by timeout this incarnation
  /// (-1 none): timeouts produce no originating RankFailure, so the
  /// manager needs the suspect out of band.
  std::atomic<int> suspect_dead_{-1};
  std::uint64_t next_pack_id_ = 1;
  /// Leases keyed by pack id. Touched only by the front-end rank thread
  /// during an incarnation and by the manager between incarnations —
  /// never concurrently.
  std::map<std::uint64_t, Lease> outstanding_;

  // --- elastic membership state ---
  /// Upper bound on simultaneously-admitted worker ranks (max_ranks - 1,
  /// with max_ranks <= 0 read as `ranks`).
  int max_workers_ = 0;
  std::atomic<std::uint64_t> incarnation_{0};
  std::atomic<bool> parked_{false};
  /// Capacity offered via offer_worker() and not yet admitted: the
  /// fingerprints joiners will announce (0 = compute locally). Guarded by
  /// join_mu_; consumed by the front-end, re-queued by the manager when an
  /// incarnation collapses mid-handshake.
  mutable std::mutex join_mu_;
  std::deque<std::uint64_t> pending_joins_;
  /// Membership roster of the current incarnation, written by the manager
  /// before World::run and by the front-end thread during it, read by the
  /// manager after the world unwinds (run()'s join orders the accesses —
  /// same discipline as outstanding_). `leasable` holds world ranks
  /// serving traffic; `pending` maps a world rank mid-join (invited or on
  /// probation) to the fingerprint its offer announced.
  struct Roster {
    std::set<int> leasable;
    std::map<int, std::uint64_t> pending;
  };
  Roster roster_;

  std::thread manager_;
};

}  // namespace aeris::serving
