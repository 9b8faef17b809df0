#include "aeris/serving/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "aeris/core/env.hpp"
#include "aeris/serving/wire.hpp"
#include "aeris/tensor/thread_pool.hpp"

namespace aeris::serving {
namespace {

using Clock = detail::Clock;
using core::env_number;
using detail::ms_between;

/// How long an idle front-end waits for its mailbox before it looks at the
/// ledger (admissions), probation windows and the liveness clocks again.
constexpr auto kLedgerTick = std::chrono::microseconds(200);

/// `o` with its invariants checked and the max_ranks sentinel resolved. A
/// broken invariant throws std::invalid_argument naming the field and the
/// value instead of being clamped into something the caller did not ask
/// for.
ClusterOptions checked(ClusterOptions o) {
  const auto require = [](bool ok, const char* field, long long value,
                          const std::string& rule) {
    detail::require_option(ok, std::string("ClusterOptions::") + field,
                           value, rule);
  };
  require(o.ranks >= 2, "ranks", o.ranks,
          "must be >= 2 (the front-end and one worker)");
  require(o.min_quorum >= 1, "min_quorum", o.min_quorum, "must be >= 1");
  require(o.max_outstanding_packs >= 1, "max_outstanding_packs",
          o.max_outstanding_packs, "must be >= 1");
  require(o.max_ranks <= 0 || o.max_ranks >= o.ranks, "max_ranks",
          o.max_ranks,
          "must be <= 0 (meaning ranks) or >= ranks = " +
              std::to_string(o.ranks));
  if (o.max_ranks <= 0) o.max_ranks = o.ranks;
  return o;
}

}  // namespace

ClusterOptions ClusterOptions::from_env() {
  ClusterOptions o;
  o.ranks = env_number("AERIS_SERVE_RANKS", o.ranks);
  o.min_quorum = env_number("AERIS_SERVE_QUORUM", o.min_quorum);
  o.heartbeat_interval_ms =
      env_number("AERIS_SERVE_HEARTBEAT_MS", o.heartbeat_interval_ms);
  // Default the detector to 8x the interval when heartbeats are on and no
  // explicit timeout is configured.
  o.heartbeat_timeout_ms = env_number(
      "AERIS_SERVE_HEARTBEAT_TIMEOUT_MS",
      o.heartbeat_interval_ms > 0.0 ? 8.0 * o.heartbeat_interval_ms : 0.0);
  o.lease_timeout_ms = env_number("AERIS_SERVE_LEASE_MS", o.lease_timeout_ms);
  o.rejoin = env_number("AERIS_SERVE_REJOIN", o.rejoin ? 1 : 0) != 0;
  o.probation_ms = env_number("AERIS_SERVE_PROBATION_MS", o.probation_ms);
  o.max_ranks = env_number("AERIS_SERVE_MAX_RANKS", o.max_ranks);
  o.serve = ServerOptions::from_env();
  return o;
}

ClusterForecastServer::ClusterForecastServer(const ModelRegistry& registry,
                                             const ClusterOptions& opts)
    : ClusterForecastServer(nullptr, &registry, opts) {}

ClusterForecastServer::ClusterForecastServer(
    const core::ParallelEnsembleEngine& engine, const ClusterOptions& opts)
    : ClusterForecastServer(make_default_registry(engine), nullptr, opts) {}

ClusterForecastServer::ClusterForecastServer(
    std::unique_ptr<ModelRegistry> owned, const ModelRegistry* shared,
    const ClusterOptions& opts)
    : owned_registry_(std::move(owned)),
      registry_(owned_registry_ ? *owned_registry_ : *shared),
      opts_(checked(opts)),
      ledger_(registry_, opts_.serve),
      alive_workers_(opts_.ranks - 1) {
  max_workers_ = opts_.max_ranks - 1;
  manager_ = std::thread([this] { manager_loop(); });
}

bool ClusterForecastServer::offer_worker(std::uint64_t announced_fingerprint) {
  if (!opts_.rejoin || ledger_.stopping()) return false;
  std::lock_guard<std::mutex> lock(join_mu_);
  // Soft capacity guard: offers mid-handshake are briefly uncounted, but
  // excess offers only ever wait in the queue for a spare slot — the
  // front-end never activates more than the world's spare ranks.
  const int committed = alive_workers_.load(std::memory_order_relaxed) +
                        static_cast<int>(pending_joins_.size());
  if (committed >= max_workers_) return false;
  pending_joins_.push_back(announced_fingerprint);
  return true;
}

ClusterForecastServer::~ClusterForecastServer() { stop(); }

void ClusterForecastServer::stop() {
  if (!ledger_.begin_stop()) return;
  if (manager_.joinable()) manager_.join();
  ledger_.drain_all(RequestStatus::kRejected,
                    "server shut down before request completed");
}

ServerStats ClusterForecastServer::stats() const { return ledger_.stats(); }

ForecastResult ClusterForecastServer::forecast(const ForecastRequest& req) {
  // Routing and shape validation happen inside admit (same contract as
  // ForecastServer::forecast).
  std::future<ForecastResult> future;
  ForecastResult refused;
  const int divisor = std::max(1, alive_workers());
  if (ledger_.admit(req, divisor, future, refused)) return refused;
  return future.get();
}

void ClusterForecastServer::manager_loop() {
  bool first_incarnation = true;
  for (;;) {
    if (ledger_.stopping()) return;
    const int workers = alive_workers_.load(std::memory_order_relaxed);
    if (workers < opts_.min_quorum) {
      const std::string msg =
          "cluster below quorum: " + std::to_string(workers) +
          " alive worker rank(s), quorum " + std::to_string(opts_.min_quorum);
      if (!opts_.rejoin) {
        // Terminal park: refuse first so no admission slips in between the
        // drain and the refusal, then drain what is in flight with the
        // typed error.
        ledger_.refuse_admissions(RequestStatus::kWorkerLost, msg);
        ledger_.drain_all(RequestStatus::kWorkerLost, msg);
        return;
      }
      // Elastic park: same typed drain/refusal contract, but the manager
      // stays up — the recovery incarnation below runs with the survivors
      // (possibly none) plus parked spare slots, and the front-end
      // un-parks as soon as admitted membership reaches quorum again.
      if (!parked_.load(std::memory_order_relaxed)) {
        parked_.store(true, std::memory_order_relaxed);
        ledger_.refuse_admissions(RequestStatus::kWorkerLost, msg);
        ledger_.drain_all(RequestStatus::kWorkerLost, msg);
      }
    }

    // With elasticity on, every incarnation's world is built at full
    // max_ranks width: ranks beyond the active set start parked in
    // rank_loop and cost nothing until capacity is offered.
    const int slots = opts_.rejoin ? max_workers_ : workers;
    swipe::World world(1 + slots);
    if (first_incarnation && opts_.fault_plan != nullptr) {
      world.set_fault_plan(opts_.fault_plan);
    }
    first_incarnation = false;
    suspect_dead_.store(-1, std::memory_order_relaxed);
    outstanding_.clear();
    roster_.leasable.clear();
    roster_.pending.clear();
    for (int r = 1; r <= workers; ++r) roster_.leasable.insert(r);
    incarnation_.fetch_add(1, std::memory_order_relaxed);

    bool failed = false;
    try {
      world.run([&](int rank) {
        if (rank == 0) {
          frontend_loop(world);
        } else {
          rank_loop(world, rank, /*serving=*/rank <= workers);
        }
      });
    } catch (...) {
      failed = true;
    }

    if (!failed) {
      // Clean shutdown: leftover leases are dropped, not requeued — stop()
      // finalizes every remaining request with kShutdown right after the
      // manager joins.
      outstanding_.clear();
      return;
    }

    // Who actually died? Originating (non-secondary) worker failures, plus
    // the front-end's timeout suspect (a hung rank produces only secondary
    // failures: nobody's exception started the collapse, the poison did).
    // Parked spares and mid-join ranks only ever unwind as secondary
    // casualties, so intersecting with the leasable roster keeps the alive
    // count honest: a joiner dying during its handshake or probation never
    // counted as capacity and is not subtracted.
    std::set<int> originating;
    for (const swipe::World::RankFailure& f : world.failures()) {
      if (f.rank > 0 && !f.secondary) originating.insert(f.rank);
    }
    const int suspect = suspect_dead_.load(std::memory_order_relaxed);
    if (suspect > 0) originating.insert(suspect);
    std::set<int> dead;
    for (const int r : originating) {
      if (roster_.leasable.count(r) != 0) dead.insert(r);
    }
    if (dead.empty() && world.failed_rank() > 0 &&
        roster_.leasable.count(world.failed_rank()) != 0) {
      dead.insert(world.failed_rank());
    }
    if (dead.empty() && originating.empty() && !roster_.leasable.empty()) {
      dead.insert(*roster_.leasable.begin());  // conservative: someone died
    }

    ledger_.note_workers_lost(static_cast<int>(dead.size()));
    alive_workers_.fetch_sub(static_cast<int>(dead.size()),
                             std::memory_order_relaxed);

    // Offers consumed mid-handshake survive the collapse: re-queue their
    // fingerprints so the capacity re-admits under the next incarnation.
    // A joiner that itself died (originating failure) forfeits its offer.
    if (!roster_.pending.empty()) {
      std::lock_guard<std::mutex> lock(join_mu_);
      for (const auto& [r, fp] : roster_.pending) {
        if (originating.count(r) == 0) pending_joins_.push_front(fp);
      }
    }

    // Requeue every leased-but-uncommitted item: the whole incarnation is
    // gone, so even survivors' in-flight packs recompute — bitwise, from
    // each member's last committed step.
    std::vector<PackItem> torequeue;
    for (auto& [id, lease] : outstanding_) {
      for (PackItem& item : lease.items) torequeue.push_back(std::move(item));
    }
    outstanding_.clear();
    if (!torequeue.empty()) ledger_.requeue_items(std::move(torequeue));
  }
}

bool ClusterForecastServer::dispatch_pack(swipe::World& world,
                                          HeartbeatMonitor& monitor,
                                          int worker_rank) {
  Pack pack = ledger_.checkout(ledger_.options().batch);
  if (pack.items.empty()) return false;
  const core::ModelConfig& mc = pack.engine->model().config();
  const std::uint64_t pack_id = next_pack_id_++;
  std::vector<float> payload = wire::encode_pack(
      pack_id, pack.model_index, pack.sampler, pack.solver_steps_override,
      std::span<const core::MemberSlot>(pack.slots), mc.h, mc.w,
      mc.out_channels, pack.slots.front().forcings->dim(2));
  // Record the lease BEFORE the send: a send into a freshly-poisoned world
  // throws, and a lease recorded first is requeued by the manager along
  // with the rest of the incarnation's outstanding work — items checked
  // out of the ledger are never lost in the unwinding.
  monitor.open_lease(worker_rank - 1, pack_id, Clock::now());
  outstanding_.emplace(pack_id, Lease{std::move(pack.items), Clock::now()});
  world.send(0, worker_rank, wire::kDownTag, std::move(payload),
             swipe::Traffic::kServing);
  return true;
}

void ClusterForecastServer::frontend_loop(swipe::World& world) {
  const int nslots = world.size() - 1;  // active workers + parked spares
  HeartbeatMonitor monitor(nslots, opts_.heartbeat_timeout_ms,
                           opts_.lease_timeout_ms, Clock::now());
  // The manager seeded roster_.leasable with the incarnation's active
  // workers; everything above them is a parked spare, exempt from the
  // liveness detectors until it joins.
  std::deque<int> spares;
  std::set<int> joining;  // invited, awaiting a fingerprint announce
  for (int r = 1; r <= nslots; ++r) {
    if (roster_.leasable.count(r) == 0) {
      monitor.unwatch(r - 1);
      spares.push_back(r);
    }
  }
  const std::uint64_t inc = incarnation_.load(std::memory_order_relaxed);
  const std::uint64_t local_fp = opts_.rejoin ? registry_.fingerprint() : 0;

  std::vector<swipe::PendingMsg> up(static_cast<std::size_t>(nslots));
  for (int r = 1; r <= nslots; ++r) {
    up[static_cast<std::size_t>(r - 1)] = world.irecv(0, r, wire::kUpTag);
  }

  // A joiner becomes leasable capacity: probation served (or none
  // configured), counted alive — and if that lifts a below-quorum park,
  // admissions resume with the outage's typed drains left untouched.
  const auto promote = [&](int r) {
    monitor.watch(r - 1, Clock::now());
    roster_.pending.erase(r);
    roster_.leasable.insert(r);
    alive_workers_.fetch_add(1, std::memory_order_relaxed);
    ledger_.note_worker_joined();
    if (parked_.load(std::memory_order_relaxed) &&
        alive_workers_.load(std::memory_order_relaxed) >= opts_.min_quorum) {
      parked_.store(false, std::memory_order_relaxed);
      ledger_.note_unpark();
      ledger_.resume_admissions();
    }
  };

  for (;;) {
    if (world.poisoned()) {
      throw swipe::PeerFailedError(world.failed_rank(),
                                   "serving world poisoned");
    }
    if (ledger_.stopping()) {
      // Workers, probationers, spares and joiners mid-handshake all leave
      // their rank loop on the same message.
      for (int r = 1; r <= nslots; ++r) {
        world.send(0, r, wire::kDownTag, wire::encode_shutdown(),
                   swipe::Traffic::kServing);
      }
      return;
    }

    bool progressed = false;

    // Drain every rank's up-lane.
    for (int r = 1; r <= nslots; ++r) {
      swipe::PendingMsg& rx = up[static_cast<std::size_t>(r - 1)];
      while (rx.test()) {
        const std::vector<float> payload = rx.wait();
        rx = world.irecv(0, r, wire::kUpTag);
        switch (wire::kind_of(payload)) {
          case wire::Kind::kHeartbeat:
            monitor.beat(r - 1, Clock::now());
            break;
          case wire::Kind::kAnnounce: {
            // Validate the joiner's claimed registry fingerprint against
            // the frozen registry before it is ever leased work.
            if (joining.erase(r) == 0) break;  // stale announce
            const wire::JoinMsg ann = wire::decode_join(payload);
            const bool ok =
                ann.fingerprint == local_fp && ann.incarnation == inc;
            world.send(0, r, wire::kDownTag, wire::encode_verdict(inc, ok),
                       swipe::Traffic::kMembership);
            if (!ok) {
              // A replica that would route or serve differently must
              // never hold a lease — refuse, count, and re-park the slot.
              ledger_.note_fingerprint_reject();
              roster_.pending.erase(r);
              spares.push_back(r);
            } else if (opts_.probation_ms > 0.0) {
              monitor.begin_probation(r - 1, Clock::now());
            } else {
              promote(r);
            }
            progressed = true;
            break;
          }
          default: {
            // A result is liveness too: it closes the lease and refreshes
            // the sender's heartbeat clock.
            wire::ResultMsg res = wire::decode_result(payload);
            monitor.beat(r - 1, Clock::now());
            monitor.close_lease(r - 1, res.pack_id);
            const auto it = outstanding_.find(res.pack_id);
            if (it == outstanding_.end()) break;  // stale/duplicate pack id
            Lease lease = std::move(it->second);
            outstanding_.erase(it);
            PackOutcome out;
            out.pack_ms = ms_between(lease.sent, Clock::now());
            if (res.ok) {
              out.next = std::move(res.next);
            } else {
              out.solve_error = std::make_exception_ptr(
                  std::runtime_error(res.error));
            }
            ledger_.commit_pack(std::move(lease.items), std::move(out));
            progressed = true;
          }
        }
      }
    }

    // Invite offered capacity into spare slots.
    for (;;) {
      if (spares.empty()) break;
      std::uint64_t fp = 0;
      {
        std::lock_guard<std::mutex> lock(join_mu_);
        if (pending_joins_.empty()) break;
        fp = pending_joins_.front();
        pending_joins_.pop_front();
      }
      const int s = spares.front();
      spares.pop_front();
      joining.insert(s);
      roster_.pending[s] = fp;
      world.send(0, s, wire::kDownTag, wire::encode_invite(inc, fp),
                 swipe::Traffic::kMembership);
      progressed = true;
    }

    // Promote probationers whose window elapsed with clean heartbeats.
    for (int p = -1; (p = monitor.probation_cleared(
                          Clock::now(), opts_.probation_ms)) >= 0;) {
      promote(p + 1);
      progressed = true;
    }

    // Liveness: declare a silent, overdue rank dead on its behalf. The
    // poison unwinds every rank; the manager reads suspect_dead_ because a
    // hang produces no originating failure record of its own.
    const int expired = monitor.expired(Clock::now());
    if (expired >= 0) {
      const int wr = expired + 1;
      const std::string why =
          "worker rank " + std::to_string(wr) +
          " declared dead by the serving front-end (lease/heartbeat "
          "timeout)";
      suspect_dead_.store(wr, std::memory_order_relaxed);
      world.poison(wr, why);
      throw swipe::PeerFailedError(wr, why);
    }

    // Dispatch to the least-loaded leasable worker with lease headroom.
    for (;;) {
      int best = -1;
      std::size_t best_load = 0;
      for (const int r : roster_.leasable) {
        const std::size_t load = monitor.open_leases(r - 1);
        if (load >= static_cast<std::size_t>(opts_.max_outstanding_packs)) {
          continue;
        }
        if (best < 0 || load < best_load) {
          best = r;
          best_load = load;
        }
      }
      if (best < 0 || !dispatch_pack(world, monitor, best)) break;
      progressed = true;
    }

    // Idle: a message wakes the front-end at once; admissions, probation
    // windows and the liveness clocks are looked at on the next tick.
    if (!progressed) world.wait_any(0, Clock::now() + kLedgerTick);
  }
}

void ClusterForecastServer::rank_loop(swipe::World& world, int rank,
                                      bool serving) {
  // Rank threads share one process (and its kernel thread pool): each rank
  // runs its packs' kernels inline, which is bitwise-identical.
  SerialRegionGuard guard;

  const auto beat_every = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(opts_.heartbeat_interval_ms));
  auto next_beat = Clock::now() + beat_every;
  swipe::PendingMsg down = world.irecv(rank, 0, wire::kDownTag);

  for (;;) {
    // Only a serving rank (worker or probationer) heartbeats; a parked
    // spare is unwatched.
    const bool beating = serving && opts_.heartbeat_interval_ms > 0.0;
    if (beating && Clock::now() >= next_beat) {
      world.send(rank, 0, wire::kUpTag, wire::encode_heartbeat(),
                 swipe::Traffic::kServing);
      next_beat = Clock::now() + beat_every;
    }
    // No explicit poison check here: a queued message survives poisoning
    // and test() still delivers it (the mailbox contract), so a dying
    // worker drains deliverable work instead of dropping it. An idle rank
    // exits via test() throwing PeerFailedError once its queue is empty
    // and the world is poisoned; a heartbeat or result send into a
    // poisoned world throws the same way.
    bool has_msg = false;
    try {
      has_msg = down.test();
    } catch (const swipe::InjectedFault&) {
      throw;  // a receive-side FaultPlan kill: this rank's own death
    } catch (const swipe::PeerFailedError&) {
      // Poisoned and fully drained. One dying-breath beat gives a latched
      // FaultPlan kill its chance to fire on this rank's "next send" as an
      // originating InjectedFault; an unlatched rank's send throws the same
      // PeerFailedError this test() just did, so classification is
      // unchanged for everyone else.
      if (beating) {
        world.send(rank, 0, wire::kUpTag, wire::encode_heartbeat(),
                   swipe::Traffic::kServing);
      }
      throw;
    }
    if (!has_msg) {
      world.wait_any(rank, beating ? next_beat : Clock::time_point::max());
      continue;
    }
    const std::vector<float> payload = down.wait();
    down = world.irecv(rank, 0, wire::kDownTag);

    switch (wire::kind_of(payload)) {
      case wire::Kind::kShutdown:
        return;
      case wire::Kind::kInvite: {
        // A parked spare announces the registry fingerprint it serves.
        // Fingerprint 0 means "announce the local replica's own digest" —
        // the in-process replica always matches. Tests and drills pass a
        // skewed value through offer_worker to exercise the reject path.
        const wire::JoinMsg invite = wire::decode_join(payload);
        const std::uint64_t fp = invite.fingerprint != 0
                                     ? invite.fingerprint
                                     : registry_.fingerprint();
        world.send(rank, 0, wire::kUpTag,
                   wire::encode_announce(invite.incarnation, fp),
                   swipe::Traffic::kMembership);
        break;
      }
      case wire::Kind::kVerdict:
        // Accepted: serving from here on. Rejected: parked again until
        // the next invite.
        serving = wire::decode_join(payload).accept;
        next_beat = Clock::now() + beat_every;
        break;
      default: {
        const wire::PackMsg pack = wire::decode_pack(payload);
        std::vector<core::MemberSlot> slots(pack.prev.size());
        for (std::size_t i = 0; i < pack.prev.size(); ++i) {
          slots[i].prev = &pack.prev[i];
          slots[i].forcings = &pack.forcings[i];
          slots[i].noise = pack.noise[i];
        }
        std::vector<float> reply;
        try {
          // Resolve the pack's engine from this rank's registry replica;
          // an out-of-range model id (a front-end/worker registry
          // mismatch) becomes a typed error reply, never garbage reads.
          const core::ParallelEnsembleEngine& eng =
              *registry_.at(static_cast<std::int64_t>(pack.model)).engine;
          const std::vector<Tensor> next = eng.step_pack(
              std::span<const core::MemberSlot>(slots),
              pack.solver_steps_override, pack.kind);
          reply = wire::encode_result(pack.pack_id,
                                      std::span<const Tensor>(next));
        } catch (const swipe::PeerFailedError&) {
          throw;  // the world is dying; don't mask it as a solve error
        } catch (const std::exception& e) {
          reply = wire::encode_result_error(pack.pack_id, e.what());
        }
        world.send(rank, 0, wire::kUpTag, std::move(reply),
                   swipe::Traffic::kServing);
      }
    }
  }
}

}  // namespace aeris::serving
