#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aeris/core/cursor.hpp"
#include "aeris/core/ensemble.hpp"
#include "aeris/serving/errors.hpp"
#include "aeris/serving/registry.hpp"
#include "aeris/serving/types.hpp"

namespace aeris::serving {

namespace detail {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Option invariant check shared by ServerOptions and ClusterOptions:
/// throws std::invalid_argument "<field> = <value>: <rule>" when `ok` is
/// false, instead of clamping the value into one the caller did not ask
/// for.
inline void require_option(bool ok, const std::string& field,
                           long long value, const std::string& rule) {
  if (!ok) {
    throw std::invalid_argument(field + " = " + std::to_string(value) + ": " +
                                rule);
  }
}

/// One admitted request. All fields are guarded by RequestLedger::mu_
/// except during a pack's solve, where the executing side alone reads the
/// in-flight members' init/traj tensors (a member has exactly one cursor,
/// and finalization is deferred while inflight > 0).
struct ActiveRequest {
  std::uint64_t id = 0;
  Tensor init;
  core::ForcingFn forcings_at;
  std::int64_t members = 0;  ///< effective (post-degrade) member count
  std::int64_t steps = 0;
  std::uint64_t seed = 0;
  bool return_partial = false;
  bool degraded = false;
  int solver_steps = 0;  ///< effective solver steps
  core::SamplerKind sampler = core::SamplerKind::kDpmSolver;
  /// Engine of the registry variant serving this request — the resolved
  /// variant, or its fallback when the cross-model rung fired. Packs never
  /// mix engines (checkout groups by it).
  const core::ParallelEnsembleEngine* engine = nullptr;
  std::string model_name;         ///< registry name of the serving variant
  std::uint32_t model_index = 0;  ///< registry index (the wire model-id lane)

  Clock::time_point admit{};
  Clock::time_point deadline{};
  bool has_deadline = false;
  bool started = false;
  double queue_wait_ms = 0.0;

  int inflight = 0;  ///< members currently checked out into a pack
  bool finalized = false;
  /// Terminal status decided while members were still in flight; applied
  /// as soon as inflight drains to zero.
  bool doomed = false;
  RequestStatus doom_status = RequestStatus::kOk;
  std::string doom_msg;
  std::exception_ptr doom_err;

  int transient_retries = 0;
  std::int64_t members_done = 0;
  std::vector<std::vector<Tensor>> traj;  ///< [member][completed step]
  std::vector<MemberReport> reports;
  std::vector<char> member_done;
  std::vector<char> quarantine_used;
  std::promise<ForecastResult> promise;
};

}  // namespace detail

/// One member's next pending forecast step, checked out of the ledger into
/// a pack. The identity fields (step, noise, prev) are resolved at
/// checkout and are stable until the item is committed or requeued:
/// finalization of the owning request is deferred while any of its items
/// is checked out, and no other item touches the same member.
struct PackItem {
  std::shared_ptr<detail::ActiveRequest> a;
  std::int64_t member = 0;
  int fault_attempts = 0;

  std::int64_t step = 0;             ///< the step this item will compute
  core::MemberKey noise{};           ///< salted when a quarantine retry
  const Tensor* prev = nullptr;      ///< [H, W, V] conditioning state
};

/// A pack checked out of the ledger, ready for one stacked solve. Every
/// item's forcing field is fetched and shape-checked against the serving
/// variant; `slots[i]` is items[i]'s step_pack slot (its forcings point
/// into `forcings`, so a Pack is move-only). Packs are pure, so the
/// schedule fields below hold for every item.
struct Pack {
  std::vector<PackItem> items;
  std::vector<core::MemberSlot> slots;
  std::vector<Tensor> forcings;  ///< one per distinct (request, step)
  const core::ParallelEnsembleEngine* engine = nullptr;
  std::uint32_t model_index = 0;  ///< registry index (the wire model-id)
  core::SamplerKind sampler = core::SamplerKind::kDpmSolver;
  int solver_steps_override = 0;  ///< 0 = the engine's configured count

  Pack() = default;
  Pack(Pack&&) = default;
  Pack& operator=(Pack&&) = default;
  Pack(const Pack&) = delete;
  Pack& operator=(const Pack&) = delete;
};

/// What happened to a pack's stacked solve: `next[i]` is item i's next
/// state, or `solve_error` is the whole pack's failure. pack_ms feeds the
/// serving variant's step-cost EMA (skipped when the solve failed).
struct PackOutcome {
  std::vector<Tensor> next;
  std::exception_ptr solve_error;
  double pack_ms = 0.0;
};

/// Throws std::invalid_argument for malformed requests (wrong shapes, null
/// forcing fn, bad member/step counts) against the resolved variant's
/// engine. Routing failures (unknown model, unsupported sampler) are NOT
/// thrown here — RequestLedger::admit turns them into typed
/// RejectedError{kUnsupported} results. Shared by both serving front-ends.
void validate_request(const core::ParallelEnsembleEngine& engine,
                      const ForecastRequest& req);

/// The serving policy stack, factored out of the execution substrate:
/// bounded admission, per-request deadlines, graceful degradation, retry
/// with capped exponential backoff + deterministic jitter, numerical
/// quarantine, and terminal accounting — everything between "a client
/// called forecast()" and "a stacked solve advanced these members one
/// step", with the solve itself left to the owner:
///
///  - ForecastServer's local workers check packs out, run engine.step_pack
///    inline on the pack's slots, and commit the outcome.
///  - ClusterForecastServer's front-end rank checks packs out, encodes the
///    pack's slots and leases them to SWiPe worker ranks over the wire,
///    commits results as they arrive, and *requeues* the checked-out items
///    of a rank that died — the member-keyed noise contract
///    (core::MemberCursor) makes the re-execution bitwise-identical
///    wherever it lands.
///
/// Every request admitted terminates with a result or a typed error.
class RequestLedger {
 public:
  /// The ledger routes against a frozen ModelRegistry (>= 1 variant;
  /// throws std::invalid_argument when empty). Both the registry and its
  /// engines must outlive the ledger.
  RequestLedger(const ModelRegistry& registry, const ServerOptions& opts);

  /// Normalized options (capacity/batch/workers clamped to >= 1).
  const ServerOptions& options() const { return opts_; }

  /// Admission (client threads). Returns a ready result for refusals
  /// (queue full, shutdown, refused admissions after quorum loss);
  /// otherwise arms `future` with the request's eventual result and
  /// returns false. `capacity_divisor` is the executor count the backlog
  /// estimate divides by (local workers, or currently alive ranks).
  bool admit(const ForecastRequest& req, int capacity_divisor,
             std::future<ForecastResult>& future, ForecastResult& refused);

  /// Blocks until work may be available or the ledger is stopping;
  /// returns false when stopping.
  bool wait_for_work(std::chrono::milliseconds timeout);

  /// The one pack path of both front-ends. Under the lock, a FIFO sweep
  /// drops cursors of finalized requests, dooms expired ones, and checks
  /// out up to `max_items` eligible items sharing one (engine, solver
  /// steps, sampler) schedule — a pack never mixes registry variants or
  /// sampler families. Outside the lock, forcings are fetched once per
  /// (request, step) and checked against the serving variant's
  /// [h, w, in_channels - 2 * out_channels]; a throwing fetch or a wrong
  /// shape is committed right here as a fault of its own request (the
  /// message names both shapes), so it never rides into a batch-mate's
  /// solve. Returns the survivors; an empty pack means nothing to solve
  /// (only backoff-gated cursors, nothing pending, or every item failed).
  Pack checkout(std::int64_t max_items);

  /// Commits a checked-out pack's solve: successful steps extend
  /// trajectories (quarantining non-finite members), a solve error
  /// consumes each item's fault retry with capped backoff, deadlines are
  /// enforced, and requests whose last member finished (or doomed requests
  /// whose last item drained) are finalized.
  void commit_pack(std::vector<PackItem> items, PackOutcome out);

  /// Worker-loss path: returns checked-out items to the ready queue
  /// *uncommitted* — the steps they were leased out for never landed, so
  /// the members resume from their last committed step (bitwise: the step
  /// index is in the noise key). Counts the affected members' remaining
  /// steps into ServerStats::requeued_member_steps.
  void requeue_items(std::vector<PackItem> items);

  /// Records `n` worker ranks declared dead.
  void note_workers_lost(int n);

  /// Finalizes every in-flight request with `status` (and a matching typed
  /// error), clearing the ready queue. Used at shutdown (kRejected) and on
  /// quorum loss (kWorkerLost, which also bumps the quorum_drains
  /// counter).
  void drain_all(RequestStatus status, const std::string& msg);

  /// After this, admissions are refused with `status` + `msg` (typed) —
  /// the below-quorum "serving is parked" state.
  void refuse_admissions(RequestStatus status, const std::string& msg);

  /// Lifts refuse_admissions: the cluster un-parked (membership recovered
  /// to quorum) and new requests are admitted again. Requests drained or
  /// refused during the outage keep their typed errors — nothing is
  /// resurrected. No-op while stopping.
  void resume_admissions();

  /// Records one worker rank admitted by the elastic join protocol.
  void note_worker_joined();
  /// Records one below-quorum park lifted after membership recovery.
  void note_unpark();
  /// Records one joiner refused for a registry-fingerprint mismatch.
  void note_fingerprint_reject();

  /// Begins shutdown: wakes every waiter; checkout returns empty and
  /// admissions are refused with kShutdown from now on. Returns false if
  /// already stopping (stop() idempotence).
  bool begin_stop();
  bool stopping() const;

  ServerStats stats() const;

 private:
  using Clock = detail::Clock;

  /// One member's queue entry between checkouts.
  struct Cursor {
    std::shared_ptr<detail::ActiveRequest> a;
    std::int64_t member = 0;
    int fault_attempts = 0;
    Clock::time_point not_before{};  ///< backoff gate (epoch = eligible now)
  };

  /// checkout's locked half: the FIFO sweep and pack formation.
  std::vector<PackItem> take_pack(std::int64_t max_items);
  /// Terminal transition: fulfills the promise exactly once, releases the
  /// request's remaining work accounting. Caller holds mu_ and guarantees
  /// a->inflight == 0.
  void finalize_locked(const std::shared_ptr<detail::ActiveRequest>& a,
                       RequestStatus status, std::string msg,
                       std::exception_ptr err);
  /// A checked-out item whose step did not land: consumes one fault retry
  /// (requeueing its cursor behind a capped backoff gate) or dooms the
  /// request when retries are exhausted; no-op for a doomed request. A
  /// fault that is not `retryable` (it would repeat on every attempt)
  /// dooms the request at once with `cause`'s message and counts no retry.
  /// Caller holds mu_ and has released the item's inflight count.
  void fault_locked(const PackItem& item, const std::exception_ptr& cause,
                    Clock::time_point now, bool retryable = true);
  /// Terminal sweep over the requests a drained pack touched. Caller
  /// holds mu_.
  void sweep_terminal_locked(std::span<const PackItem> items);

  const ModelRegistry& registry_;
  ServerOptions opts_;
  Philox jitter_rng_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Cursor> ready_;
  bool stopping_ = false;
  bool refusing_ = false;
  RequestStatus refuse_status_ = RequestStatus::kRejected;
  std::string refuse_msg_;
  std::uint64_t next_id_ = 0;
  std::int64_t active_count_ = 0;
  /// Backlog accounting keyed by registry variant index (the serving
  /// variant, post-fallback): one slow variant's queue depth and step-cost
  /// EMA must not inflate the degradation decisions of a fast one.
  std::vector<std::int64_t> pending_member_steps_;
  std::vector<double> ema_member_step_ms_;
  std::vector<std::shared_ptr<detail::ActiveRequest>> actives_;
  ServerStats stats_;
};

}  // namespace aeris::serving
