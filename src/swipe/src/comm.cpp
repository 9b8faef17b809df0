#include "aeris/swipe/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "aeris/core/env.hpp"
#include "aeris/swipe/fault.hpp"

namespace aeris::swipe {
namespace {

// getenv is surprisingly expensive (libc lock + linear scan); read the
// trace flag once per process instead of on every rank failure path.
const bool kTraceEnabled = std::getenv("AERIS_TRACE") != nullptr;

// Ring hops are pipelined in sub-chunks of this many floats (64 KiB): a
// receiver reduces sub-chunk k while sub-chunk k+1 is still in flight.
// Each sub-chunk is one mailbox message, so the size trades pipelining
// granularity against per-message wakeup cost; 64 KiB stays under the
// allocator's mmap threshold while still pipelining multi-MB buffers.
constexpr std::size_t kPipelineSubChunk = 16384;

}  // namespace

// ------------------------------------------------------------ PendingMsg

void PendingMsg::require_usable(const char* op) const {
  if (!valid_) {
    throw std::logic_error(std::string("PendingMsg::") + op +
                           ": default-constructed handle");
  }
  if (consumed_) {
    throw std::logic_error(std::string("PendingMsg::") + op +
                           ": handle already consumed by wait()");
  }
}

bool PendingMsg::test() {
  require_usable("test");
  if (done_) return true;
  if (world_->try_recv(dst_, src_, tag_, payload_)) done_ = true;
  return done_;
}

std::vector<float> PendingMsg::wait() {
  require_usable("wait");
  if (!done_) {
    payload_ = world_->recv(dst_, src_, tag_);
    done_ = true;
  }
  consumed_ = true;
  return std::move(payload_);
}

// ----------------------------------------------------------------- World

World::World(int nranks)
    : nranks_(nranks),
      rank_bytes_(nranks),
      send_seq_(nranks),
      recv_seq_(nranks),
      kill_fired_(nranks) {
  if (nranks <= 0) throw std::invalid_argument("World: nranks must be > 0");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  timeout_ms_.store(
      core::env_number<std::int64_t>("AERIS_COMM_TIMEOUT_MS", 0),
      std::memory_order_relaxed);
  reset_counters();
}

void World::set_fault_plan(std::shared_ptr<const FaultPlan> plan) {
  for (auto& c : send_seq_) c.store(0, std::memory_order_relaxed);
  for (auto& c : recv_seq_) c.store(0, std::memory_order_relaxed);
  for (auto& f : kill_fired_) f.store(false, std::memory_order_relaxed);
  fault_plan_ = std::move(plan);
  fault_.store(fault_plan_.get(), std::memory_order_release);
}

const FaultEvent* World::next_send_fault(int src) {
  const FaultPlan* plan = fault_.load(std::memory_order_acquire);
  if (!plan) return nullptr;
  const std::uint64_t seq = send_seq_[static_cast<std::size_t>(src)].fetch_add(
      1, std::memory_order_relaxed);
  const FaultEvent* ev = plan->match(src, seq, /*on_recv=*/false);
  auto& fired = kill_fired_[static_cast<std::size_t>(src)];
  if (ev && ev->kind == FaultKind::kKillRank) {
    if (fired.exchange(true, std::memory_order_acq_rel)) return nullptr;
    // The rank is dead to its peers from this instant, even if user code
    // catches the exception below — exactly like a process kill.
    poison(src, "injected kill");
    throw InjectedFault(src, seq);
  }
  if (ev) return ev;
  // Latched kill: the world is already dying and this rank still carries
  // an unfired kill — it dies its scheduled death on this send (as an
  // originating failure) instead of unwinding as a secondary casualty
  // with the event silently skipped. This is what lets multi-kill drills
  // land every scheduled death in one incarnation.
  if (poisoned_.load(std::memory_order_acquire) &&
      plan->latched_kill(src, /*on_recv=*/false) &&
      !fired.exchange(true, std::memory_order_acq_rel)) {
    throw InjectedFault(src, seq);
  }
  return nullptr;
}

bool World::apply_send_fault(const FaultEvent& ev, int /*src*/,
                             std::uint64_t /*seq*/) {
  switch (ev.kind) {
    case FaultKind::kDropMsg:
      return true;
    case FaultKind::kDelayMsg:
      std::this_thread::sleep_for(std::chrono::milliseconds(ev.delay_ms));
      return false;
    default:
      return false;  // kill handled in next_send_fault, corrupt in callers
  }
}

void World::fire_latched_recv_kill(const FaultPlan& plan, int dst) {
  // The receive-side twin of the send path's latch: a rank whose
  // scheduled receive never comes because the world is already dying dies
  // its own death on this attempt, even with nothing queued.
  auto& fired = kill_fired_[static_cast<std::size_t>(dst)];
  if (!poisoned_.load(std::memory_order_acquire) ||
      plan.latched_kill(dst, /*on_recv=*/true) == nullptr ||
      fired.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  throw InjectedFault(
      dst,
      recv_seq_[static_cast<std::size_t>(dst)].load(std::memory_order_relaxed),
      /*on_recv=*/true);
}

void World::apply_recv_fault(const FaultPlan& plan, int dst) {
  const std::uint64_t seq = recv_seq_[static_cast<std::size_t>(dst)].fetch_add(
      1, std::memory_order_relaxed);
  const FaultEvent* ev = plan.match(dst, seq, /*on_recv=*/true);
  if (ev == nullptr) return;
  if (ev->kind == FaultKind::kDelayMsg) {
    // The message is already taken: the rank hangs holding it.
    std::this_thread::sleep_for(std::chrono::milliseconds(ev->delay_ms));
    return;
  }
  // kKillRank, the only other kind FaultPlan::add admits on this side.
  if (kill_fired_[static_cast<std::size_t>(dst)].exchange(
          true, std::memory_order_acq_rel)) {
    return;
  }
  poison(dst, "injected kill");
  throw InjectedFault(dst, seq, /*on_recv=*/true);
}

void World::poison(int rank, const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(poison_mutex_);
    // First failure wins: it is the root cause every PeerFailedError names.
    if (!poisoned_.load(std::memory_order_relaxed)) {
      failed_rank_.store(rank, std::memory_order_relaxed);
      poison_why_ = why;
      poisoned_.store(true, std::memory_order_release);
    }
  }
  // Lock-then-notify so a waiter between its predicate check and cv.wait
  // cannot miss the wakeup.
  for (auto& box : mailboxes_) {
    { std::lock_guard<std::mutex> lock(box->mutex); }
    box->cv.notify_all();
  }
}

void World::throw_peer_failed(const char* op, int rank, int src,
                              std::uint64_t tag) const {
  std::string why;
  {
    std::lock_guard<std::mutex> lock(poison_mutex_);
    why = poison_why_;
  }
  const int failed = failed_rank_.load(std::memory_order_acquire);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: peer rank %d failed (%s); rank %d aborted op on "
                "(src %d, tag %llu)",
                op, failed, why.c_str(), rank, src,
                static_cast<unsigned long long>(tag));
  throw PeerFailedError(failed, buf);
}

void World::await_message(Mailbox& box, std::unique_lock<std::mutex>& lock,
                          int dst, int src, std::uint64_t tag,
                          const char* op) {
  const auto key = std::make_pair(src, tag);
  const auto ready = [&] {
    const auto it = box.queues.find(key);
    return it != box.queues.end() && !it->second.empty();
  };
  if (ready()) return;
  box.blocked_op = op;
  box.blocked_src = src;
  box.blocked_tag = tag;
  const std::int64_t timeout = timeout_ms_.load(std::memory_order_relaxed);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout);
  for (;;) {
    if (ready()) break;
    if (poisoned_.load(std::memory_order_acquire)) {
      box.blocked_op = nullptr;
      lock.unlock();
      // A receive the poison woke is an attempt too: a latched
      // receive-side kill fires here rather than as a secondary failure.
      if (const FaultPlan* plan = fault_.load(std::memory_order_acquire)) {
        fire_latched_recv_kill(*plan, dst);
      }
      throw_peer_failed(op, dst, src, tag);
    }
    if (timeout <= 0) {
      box.cv.wait(lock);
    } else if (box.cv.wait_until(lock, deadline) == std::cv_status::timeout &&
               !ready() && !poisoned_.load(std::memory_order_acquire)) {
      // Build the dump without our own mailbox lock held (deadlock_dump
      // visits every mailbox, including this one), keeping the blocked-op
      // diagnostics set so the dump shows the timed-out rank too.
      lock.unlock();
      std::string dump = deadlock_dump();
      lock.lock();
      box.blocked_op = nullptr;
      lock.unlock();
      char head[192];
      std::snprintf(head, sizeof(head),
                    "%s: rank %d timed out after %lld ms awaiting "
                    "(src %d, tag %llu)",
                    op, dst, static_cast<long long>(timeout), src,
                    static_cast<unsigned long long>(tag));
      throw CommTimeoutError(head, std::move(dump));
    }
  }
  box.blocked_op = nullptr;
}

std::string World::deadlock_dump() const {
  std::string out = "=== world state dump ===\n";
  char line[192];
  for (int r = 0; r < nranks_; ++r) {
    Mailbox& box = *mailboxes_[static_cast<std::size_t>(r)];
    std::lock_guard<std::mutex> lock(box.mutex);
    if (box.blocked_op) {
      std::snprintf(line, sizeof(line),
                    "rank %d: blocked in %s awaiting (src %d, tag %llu)\n", r,
                    box.blocked_op, box.blocked_src,
                    static_cast<unsigned long long>(box.blocked_tag));
    } else {
      std::snprintf(line, sizeof(line), "rank %d: not blocked\n", r);
    }
    out += line;
    int shown = 0;
    for (const auto& [key, q] : box.queues) {
      if (++shown > 8) {
        out += "  ... more pending tags elided\n";
        break;
      }
      std::snprintf(line, sizeof(line),
                    "  pending: %zu msg(s) from src %d, tag %llu\n", q.size(),
                    key.first, static_cast<unsigned long long>(key.second));
      out += line;
    }
  }
  static constexpr const char* kClassNames[kTrafficClasses] = {
      "p2p",     "alltoall", "allreduce", "allgather", "reduce_scatter",
      "serving", "membership"};
  out += "bytes:";
  for (int t = 0; t < kTrafficClasses; ++t) {
    std::snprintf(line, sizeof(line), " %s=%lld", kClassNames[t],
                  static_cast<long long>(bytes(static_cast<Traffic>(t))));
    out += line;
  }
  out += "\n";
  return out;
}

namespace {

/// Turns a popped message into an owned vector: exclusive payloads (one
/// receiver from birth) are moved out; fan-out payloads are copied, since
/// sibling receivers may still be reading the shared buffer.
std::vector<float> claim(World::Msg msg) {
  if (msg.exclusive) {
    return std::move(
        *std::const_pointer_cast<std::vector<float>>(std::move(msg.data)));
  }
  return *msg.data;
}

}  // namespace

void World::send(int src, int dst, std::uint64_t tag,
                 std::vector<float> payload, Traffic traffic) {
  if (dst < 0 || dst >= nranks_ || src < 0 || src >= nranks_) {
    throw std::invalid_argument("send: rank out of range");
  }
  // The fault hook runs before the poison check so a scheduled kill still
  // fires in a dying world (a rank dies its own death, not a secondary
  // one) — this is what makes multi-kill drills stackable.
  const FaultEvent* ev = next_send_fault(src);
  // Sends propagate failure too: a poisoned world means the receiving side
  // may never drain, so abort instead of silently stuffing mailboxes.
  if (poisoned_.load(std::memory_order_acquire)) {
    throw_peer_failed("send", src, dst, tag);
  }
  if (ev) {
    if (ev->kind == FaultKind::kCorruptPayload && !payload.empty()) {
      std::uint32_t bits;
      std::memcpy(&bits, payload.data(), sizeof(bits));
      bits ^= ev->corrupt_xor;
      std::memcpy(payload.data(), &bits, sizeof(bits));
    }
    rank_bytes_[static_cast<std::size_t>(src)][static_cast<int>(traffic)] +=
        static_cast<std::int64_t>(payload.size() * sizeof(float));
    if (apply_send_fault(*ev, src, 0)) return;  // dropped: charged, not sent
  } else {
    rank_bytes_[static_cast<std::size_t>(src)][static_cast<int>(traffic)] +=
        static_cast<std::int64_t>(payload.size() * sizeof(float));
  }
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queues[{src, tag}].push_back(
        Msg{std::make_shared<std::vector<float>>(std::move(payload)),
            /*exclusive=*/true});
  }
  box.cv.notify_all();
}

void World::send_shared(int src, int dst, std::uint64_t tag,
                        std::shared_ptr<const std::vector<float>> payload,
                        Traffic traffic) {
  if (dst < 0 || dst >= nranks_ || src < 0 || src >= nranks_) {
    throw std::invalid_argument("send_shared: rank out of range");
  }
  const FaultEvent* ev = next_send_fault(src);  // before the poison check
  if (poisoned_.load(std::memory_order_acquire)) {
    throw_peer_failed("send_shared", src, dst, tag);
  }
  if (ev) {
    if (ev->kind == FaultKind::kCorruptPayload && !payload->empty()) {
      // Sibling receivers of this fan-out share the buffer; corrupt a
      // private clone so only this destination sees the flipped bit.
      auto corrupted = std::make_shared<std::vector<float>>(*payload);
      std::uint32_t bits;
      std::memcpy(&bits, corrupted->data(), sizeof(bits));
      bits ^= ev->corrupt_xor;
      std::memcpy(corrupted->data(), &bits, sizeof(bits));
      payload = std::move(corrupted);
    }
    rank_bytes_[static_cast<std::size_t>(src)][static_cast<int>(traffic)] +=
        static_cast<std::int64_t>(payload->size() * sizeof(float));
    if (apply_send_fault(*ev, src, 0)) return;
  } else {
    rank_bytes_[static_cast<std::size_t>(src)][static_cast<int>(traffic)] +=
        static_cast<std::int64_t>(payload->size() * sizeof(float));
  }
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queues[{src, tag}].push_back(
        Msg{std::move(payload), /*exclusive=*/false});
  }
  box.cv.notify_all();
}

// Every receive path loads the armed plan once: disarmed, that acquire
// load is the whole cost of the receive-side fault hooks.

std::shared_ptr<const std::vector<float>> World::recv_shared(
    int dst, int src, std::uint64_t tag) {
  const FaultPlan* plan = fault_.load(std::memory_order_acquire);
  if (plan) fire_latched_recv_kill(*plan, dst);
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  std::unique_lock<std::mutex> lock(box.mutex);
  await_message(box, lock, dst, src, tag, "recv_shared");
  auto it = box.queues.find(std::make_pair(src, tag));
  std::shared_ptr<const std::vector<float>> payload =
      std::move(it->second.front().data);
  it->second.pop_front();
  if (it->second.empty()) box.queues.erase(it);
  lock.unlock();
  if (plan) apply_recv_fault(*plan, dst);
  return payload;
}

std::vector<float> World::recv(int dst, int src, std::uint64_t tag) {
  const FaultPlan* plan = fault_.load(std::memory_order_acquire);
  if (plan) fire_latched_recv_kill(*plan, dst);
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  std::unique_lock<std::mutex> lock(box.mutex);
  await_message(box, lock, dst, src, tag, "recv");
  auto it = box.queues.find(std::make_pair(src, tag));
  Msg msg = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) box.queues.erase(it);
  lock.unlock();
  if (plan) apply_recv_fault(*plan, dst);
  return claim(std::move(msg));
}

PendingMsg World::isend(int src, int dst, std::uint64_t tag,
                        std::vector<float> payload, Traffic traffic) {
  // Mailbox sends are buffered: the transfer "completes" at enqueue time,
  // so the handle is born done (MPI_Ibsend semantics).
  send(src, dst, tag, std::move(payload), traffic);
  return PendingMsg(this);
}

PendingMsg World::irecv(int dst, int src, std::uint64_t tag) {
  if (dst < 0 || dst >= nranks_ || src < 0 || src >= nranks_) {
    throw std::invalid_argument("irecv: rank out of range");
  }
  return PendingMsg(this, dst, src, tag);
}

bool World::wait_any(int rank, std::chrono::steady_clock::time_point deadline) {
  if (rank < 0 || rank >= nranks_) {
    throw std::invalid_argument("wait_any: rank out of range");
  }
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lock(box.mutex);
  const auto woken = [&] {
    return poisoned_.load(std::memory_order_acquire) ||
           std::any_of(box.queues.begin(), box.queues.end(),
                       [](const auto& q) { return !q.second.empty(); });
  };
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    box.cv.wait(lock, woken);
    return true;
  }
  return box.cv.wait_until(lock, deadline, woken);
}

bool World::try_recv(int dst, int src, std::uint64_t tag,
                     std::vector<float>& out) {
  const FaultPlan* plan = fault_.load(std::memory_order_acquire);
  if (plan) fire_latched_recv_kill(*plan, dst);
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  Msg msg;
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    const auto it = box.queues.find(std::make_pair(src, tag));
    if (it == box.queues.end() || it->second.empty()) {
      // A queued message is still deliverable after a failure; only an
      // unsatisfiable poll propagates it (the sender may never come).
      if (poisoned_.load(std::memory_order_acquire)) {
        throw_peer_failed("try_recv", dst, src, tag);
      }
      return false;
    }
    msg = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) box.queues.erase(it);
  }
  if (plan) apply_recv_fault(*plan, dst);
  out = claim(std::move(msg));
  return true;
}

std::int64_t World::bytes(Traffic t) const {
  std::int64_t total = 0;
  for (const auto& per_rank : rank_bytes_) {
    total += per_rank[static_cast<int>(t)].load();
  }
  return total;
}

std::int64_t World::rank_bytes(int rank, Traffic t) const {
  return rank_bytes_[static_cast<std::size_t>(rank)][static_cast<int>(t)]
      .load();
}

void World::reset_counters() {
  for (auto& per_rank : rank_bytes_) {
    for (auto& c : per_rank) c.store(0);
  }
}

void World::run(const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks_));
  // Every escaped exception is kept alive until after join(); the root
  // cause is selected on the joined thread. Releasing a superseded
  // candidate from inside another rank's catch block would drop its
  // refcount while the throwing rank may still be reading what() —
  // synchronized only by the exception refcount internals, which TSan
  // cannot see through — so no exception_ptr is released mid-run.
  struct Caught {
    std::exception_ptr ep;
    bool secondary;
  };
  std::vector<Caught> caught;
  std::mutex error_mutex;
  {
    std::lock_guard<std::mutex> lock(poison_mutex_);
    failures_.clear();
  }
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r);
      } catch (const std::exception& e) {
        if (kTraceEnabled) {
          fprintf(stderr, "[world] rank %d threw: %s\n", r, e.what());
        }
        // An escaped exception means this rank will never send again:
        // poison so peers blocked on it fail fast instead of hanging.
        poison(r, std::string("uncaught exception: ") + e.what());
        // A plain PeerFailedError is a consequence of someone else's death,
        // not a cause (an InjectedFault is the death itself) — prefer the
        // originating exception as the one run() rethrows.
        const bool secondary =
            dynamic_cast<const PeerFailedError*>(&e) != nullptr &&
            dynamic_cast<const InjectedFault*>(&e) == nullptr;
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          caught.push_back(Caught{std::current_exception(), secondary});
        }
        std::lock_guard<std::mutex> lock(poison_mutex_);
        failures_.push_back(RankFailure{r, e.what(), secondary});
      } catch (...) {
        poison(r, "uncaught non-standard exception");
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          caught.push_back(Caught{std::current_exception(), false});
        }
        std::lock_guard<std::mutex> lock(poison_mutex_);
        failures_.push_back(RankFailure{r, "(non-standard exception)"});
      }
    });
  }
  for (auto& t : threads) t.join();
  // First escaped exception wins, except that an originating failure
  // supersedes an earlier secondary one — same policy as before, applied
  // in arrival (push) order.
  std::exception_ptr root_cause;
  bool root_is_secondary = false;
  for (const Caught& c : caught) {
    if (!root_cause || (root_is_secondary && !c.secondary)) {
      root_cause = c.ep;
      root_is_secondary = c.secondary;
    }
  }
  if (root_cause) std::rethrow_exception(root_cause);
}

// ---------------------------------------------------------- Communicator

Communicator::Communicator(World& world, std::vector<int> members,
                           int my_world_rank, std::uint64_t group_tag)
    : world_(world), members_(std::move(members)), group_tag_(group_tag) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == my_world_rank) my_rank_ = static_cast<int>(i);
  }
  if (my_rank_ < 0) {
    throw std::invalid_argument("Communicator: caller not in member list");
  }
}

void Communicator::send(int dst, std::uint64_t tag, std::vector<float> payload,
                        Traffic traffic) {
  world_.send(world_rank(rank()), world_rank(dst), tagged(tag),
              std::move(payload), traffic);
}

std::vector<float> Communicator::recv(int src, std::uint64_t tag) {
  return world_.recv(world_rank(rank()), world_rank(src), tagged(tag));
}

PendingMsg Communicator::isend(int dst, std::uint64_t tag,
                               std::vector<float> payload, Traffic traffic) {
  return world_.isend(world_rank(rank()), world_rank(dst), tagged(tag),
                      std::move(payload), traffic);
}

PendingMsg Communicator::irecv(int src, std::uint64_t tag) {
  return world_.irecv(world_rank(rank()), world_rank(src), tagged(tag));
}

void Communicator::hop_send(int dst, std::uint64_t tag,
                            std::span<const float> chunk, Traffic traffic) {
  const std::size_t n = chunk.size();
  for (std::size_t b = 0; b < n; b += kPipelineSubChunk) {
    const std::size_t e = std::min(n, b + kPipelineSubChunk);
    isend(dst, tag,
          std::vector<float>(chunk.begin() + static_cast<std::ptrdiff_t>(b),
                             chunk.begin() + static_cast<std::ptrdiff_t>(e)),
          traffic);
  }
}

void Communicator::hop_recv(int src, std::uint64_t tag, std::span<float> chunk,
                            bool accumulate) {
  const std::size_t n = chunk.size();
  for (std::size_t b = 0; b < n; b += kPipelineSubChunk) {
    const std::size_t e = std::min(n, b + kPipelineSubChunk);
    // Read straight out of the (possibly fan-out-shared) message buffer:
    // one copy from wire to destination, never a claiming copy first.
    const std::shared_ptr<const std::vector<float>> in =
        world_.recv_shared(world_rank(rank()), world_rank(src), tagged(tag));
    if (in->size() != e - b) {
      throw std::runtime_error("hop_recv: sub-chunk size mismatch");
    }
    const float* data = in->data();
    if (accumulate) {
      for (std::size_t i = 0; i < in->size(); ++i) chunk[b + i] += data[i];
    } else {
      std::copy(data, data + in->size(),
                chunk.begin() + static_cast<std::ptrdiff_t>(b));
    }
  }
}

void Communicator::fanout_send(std::span<const int> dsts, std::uint64_t tag,
                               std::span<const float> chunk, Traffic traffic) {
  const std::size_t n = chunk.size();
  for (std::size_t b = 0; b < n; b += kPipelineSubChunk) {
    const std::size_t e = std::min(n, b + kPipelineSubChunk);
    const auto sub = std::make_shared<const std::vector<float>>(
        chunk.begin() + static_cast<std::ptrdiff_t>(b),
        chunk.begin() + static_cast<std::ptrdiff_t>(e));
    for (const int dst : dsts) {
      world_.send_shared(world_rank(rank()), world_rank(dst), tagged(tag), sub,
                         traffic);
    }
  }
}

void Communicator::allreduce_sum(std::span<float> data) {
  RingAllreduce reduce(*this, data);
  reduce.finish();
}

void Communicator::allgatherv(std::span<const float> mine,
                              std::span<const std::int64_t> counts,
                              const SectionSink& sink) {
  const int r = size();
  if (static_cast<int>(counts.size()) != r) {
    throw std::invalid_argument("allgatherv: need one count per rank");
  }
  for (const std::int64_t c : counts) {
    if (c < 0) throw std::invalid_argument("allgatherv: negative count");
  }
  if (static_cast<std::int64_t>(mine.size()) !=
      counts[static_cast<std::size_t>(rank())]) {
    throw std::invalid_argument("allgatherv: own section size mismatch");
  }
  if (r == 1) return;

  // Direct pairwise exchange over ragged sections: every owner posts its
  // section to all peers eagerly (one shared buffer per sub-chunk, fanned
  // out by reference), then drains the r-1 incoming sections straight into
  // the sink. One latency round instead of a ring's r-1 serial forwarding
  // hops, and total traffic is (r-1) * sum(counts).
  const std::uint64_t tag = reserve_epochs(1);
  const int me = rank();
  std::vector<int> peers;
  peers.reserve(static_cast<std::size_t>(r) - 1);
  for (int p = 1; p < r; ++p) peers.push_back((me + p) % r);
  fanout_send(peers, tag, mine, Traffic::kAllGather);
  for (int p = 1; p < r; ++p) {
    const int src = (me + r - p) % r;
    const std::size_t n =
        static_cast<std::size_t>(counts[static_cast<std::size_t>(src)]);
    for (std::size_t b = 0; b < n; b += kPipelineSubChunk) {
      const std::size_t e = std::min(n, b + kPipelineSubChunk);
      const std::shared_ptr<const std::vector<float>> in =
          world_.recv_shared(world_rank(me), world_rank(src), tagged(tag));
      if (in->size() != e - b) {
        throw std::runtime_error("allgatherv: sub-chunk size mismatch");
      }
      sink(src, b, std::span<const float>(in->data(), in->size()));
    }
  }
}

void Communicator::allgatherv(std::span<float> data,
                              std::span<const std::int64_t> counts) {
  const int r = size();
  if (static_cast<int>(counts.size()) != r) {
    throw std::invalid_argument("allgatherv: need one count per rank");
  }
  std::int64_t total = 0;
  std::vector<std::int64_t> offset(static_cast<std::size_t>(r) + 1);
  for (int c = 0; c < r; ++c) {
    if (counts[static_cast<std::size_t>(c)] < 0) {
      throw std::invalid_argument("allgatherv: negative count");
    }
    offset[static_cast<std::size_t>(c)] = total;
    total += counts[static_cast<std::size_t>(c)];
  }
  offset[static_cast<std::size_t>(r)] = total;
  if (total != static_cast<std::int64_t>(data.size())) {
    throw std::invalid_argument("allgatherv: counts do not sum to data size");
  }
  const auto section = [&](int owner) {
    return data.subspan(
        static_cast<std::size_t>(offset[static_cast<std::size_t>(owner)]),
        static_cast<std::size_t>(counts[static_cast<std::size_t>(owner)]));
  };
  allgatherv(section(rank()), counts,
             [&](int src, std::size_t off, std::span<const float> part) {
               std::copy(part.begin(), part.end(),
                         section(src).begin() + static_cast<std::ptrdiff_t>(off));
             });
}

void Communicator::reduce_scatterv(std::span<const std::int64_t> counts,
                                   std::span<float> out_mine,
                                   const SegmentLoad& load) {
  const int r = size();
  if (static_cast<int>(counts.size()) != r) {
    throw std::invalid_argument("reduce_scatterv: need one count per rank");
  }
  for (const std::int64_t c : counts) {
    if (c < 0) throw std::invalid_argument("reduce_scatterv: negative count");
  }
  const int me = rank();
  if (static_cast<std::int64_t>(out_mine.size()) !=
      counts[static_cast<std::size_t>(me)]) {
    throw std::invalid_argument("reduce_scatterv: own section size mismatch");
  }
  if (r == 1) {
    load(me, 0, out_mine, /*accumulate=*/false);
    return;
  }

  // Ragged ring reduce-scatter. At hop t, rank me forwards section
  // (me - t - 1) and receives section (me - t - 2); after r-1 hops its own
  // section arrives fully reduced. The in-flight buffer passes through:
  // each hop adds the local contribution into the *received* vector and
  // forwards it by move, so relayed sections are never restaged from local
  // storage (3 memory touches per element per hop instead of 5).
  const std::uint64_t tag0 = reserve_epochs(static_cast<std::uint64_t>(r - 1));
  const int next = (me + 1) % r;
  const int prev = (me + r - 1) % r;
  const auto count_of = [&](int s) {
    return static_cast<std::size_t>(counts[static_cast<std::size_t>(s)]);
  };

  // Hop 0: build my contribution to section (me - 1) and launch it.
  {
    const int s0 = (me + r - 1) % r;
    const std::size_t n = count_of(s0);
    for (std::size_t b = 0; b < n; b += kPipelineSubChunk) {
      const std::size_t e = std::min(n, b + kPipelineSubChunk);
      std::vector<float> v(e - b);
      load(s0, b, v, /*accumulate=*/false);
      isend(next, tag0, std::move(v), Traffic::kReduceScatter);
    }
  }
  for (int t = 0; t < r - 1; ++t) {
    const int sr = (me - t - 2 + 2 * r) % r;  // section received at hop t
    const std::size_t n = count_of(sr);
    const bool last = (t == r - 2);  // then sr == me: keep, don't forward
    for (std::size_t b = 0; b < n; b += kPipelineSubChunk) {
      const std::size_t e = std::min(n, b + kPipelineSubChunk);
      std::vector<float> v = recv(prev, tag0 + static_cast<std::uint64_t>(t));
      if (v.size() != e - b) {
        throw std::runtime_error("reduce_scatterv: sub-chunk size mismatch");
      }
      load(sr, b, v, /*accumulate=*/true);
      if (last) {
        std::copy(v.begin(), v.end(),
                  out_mine.begin() + static_cast<std::ptrdiff_t>(b));
      } else {
        isend(next, tag0 + static_cast<std::uint64_t>(t + 1), std::move(v),
              Traffic::kReduceScatter);
      }
    }
  }
}

void Communicator::reduce_scatterv(std::span<float> data,
                                   std::span<const std::int64_t> counts) {
  const int r = size();
  if (static_cast<int>(counts.size()) != r) {
    throw std::invalid_argument("reduce_scatterv: need one count per rank");
  }
  std::int64_t total = 0;
  std::vector<std::int64_t> offset(static_cast<std::size_t>(r) + 1);
  for (int c = 0; c < r; ++c) {
    if (counts[static_cast<std::size_t>(c)] < 0) {
      throw std::invalid_argument("reduce_scatterv: negative count");
    }
    offset[static_cast<std::size_t>(c)] = total;
    total += counts[static_cast<std::size_t>(c)];
  }
  offset[static_cast<std::size_t>(r)] = total;
  if (total != static_cast<std::int64_t>(data.size())) {
    throw std::invalid_argument(
        "reduce_scatterv: counts do not sum to data size");
  }
  const auto load = [&](int s, std::size_t off, std::span<float> part,
                        bool accumulate) {
    const float* src =
        data.data() + offset[static_cast<std::size_t>(s)] + off;
    if (accumulate) {
      for (std::size_t i = 0; i < part.size(); ++i) part[i] += src[i];
    } else {
      std::copy(src, src + part.size(), part.begin());
    }
  };
  reduce_scatterv(
      counts,
      data.subspan(
          static_cast<std::size_t>(offset[static_cast<std::size_t>(rank())]),
          static_cast<std::size_t>(counts[static_cast<std::size_t>(rank())])),
      load);
}

std::vector<std::vector<float>> Communicator::alltoall(
    std::vector<std::vector<float>> send_bufs) {
  if (static_cast<int>(send_bufs.size()) != size()) {
    throw std::invalid_argument("alltoall: need one buffer per rank");
  }
  const std::uint64_t tag = collective_epoch_++;
  std::vector<std::vector<float>> out(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    if (r == rank()) {
      out[static_cast<std::size_t>(r)] =
          std::move(send_bufs[static_cast<std::size_t>(r)]);
    } else {
      isend(r, tag, std::move(send_bufs[static_cast<std::size_t>(r)]),
            Traffic::kAllToAll);
    }
  }
  for (int r = 0; r < size(); ++r) {
    if (r != rank()) out[static_cast<std::size_t>(r)] = recv(r, tag);
  }
  return out;
}

// ---------------------------------------------------------- RingAllreduce

RingAllreduce::RingAllreduce(Communicator& comm, std::span<float> data)
    : comm_(&comm), data_(data) {
  const int r = comm.size();
  if (r == 1 || data.empty()) return;  // nothing to move
  // Reserve the whole tag window up front so concurrently-launched
  // collectives on the same communicator stay in lockstep even if their
  // finish() calls interleave differently with other traffic.
  tag0_ = comm.reserve_epochs(static_cast<std::uint64_t>(2 * (r - 1)));
  finished_ = false;
  // Launch the first reduce-scatter hop eagerly: my chunk is already in
  // flight to the ring neighbour while the caller keeps computing.
  const std::int64_t n = static_cast<std::int64_t>(data.size());
  const int me = comm.rank();
  const int next = (me + 1) % r;
  const std::int64_t sb = (n * me) / r;
  const std::int64_t se = (n * (me + 1)) / r;
  comm.hop_send(next, tag0_,
                data.subspan(static_cast<std::size_t>(sb),
                             static_cast<std::size_t>(se - sb)),
                Traffic::kAllReduce);
}

void RingAllreduce::finish() {
  if (finished_) return;
  Communicator& comm = *comm_;
  const int r = comm.size();
  const std::int64_t n = static_cast<std::int64_t>(data_.size());
  auto chunk = [&](int c) {
    const std::int64_t b = (n * c) / r;
    const std::int64_t e = (n * (c + 1)) / r;
    return data_.subspan(static_cast<std::size_t>(b),
                         static_cast<std::size_t>(e - b));
  };
  const int me = comm.rank();
  const int next = (me + 1) % r;
  const int prev = (me + r - 1) % r;

  // Reduce-scatter: hop 0's send was launched at construction; afterwards
  // the in-flight buffer passes through each rank — add the local chunk
  // into the *received* vector and forward it by move. Relayed chunks are
  // never restaged from the local buffer (3 memory touches per element per
  // hop instead of 5), and float addition is commutative bit-for-bit, so
  // the reduction order is unchanged. After r-1 hops, rank me holds the
  // fully reduced chunk (me + 1) % r in its local buffer.
  for (int step = 0; step < r - 1; ++step) {
    const int recv_chunk = (me - step - 1 + r) % r;
    const std::span<float> local = chunk(recv_chunk);
    const std::size_t n = local.size();
    const bool last = (step == r - 2);
    for (std::size_t b = 0; b < n; b += kPipelineSubChunk) {
      const std::size_t e = std::min(n, b + kPipelineSubChunk);
      std::vector<float> v =
          comm.recv(prev, tag0_ + static_cast<std::uint64_t>(step));
      if (v.size() != e - b) {
        throw std::runtime_error("RingAllreduce: sub-chunk size mismatch");
      }
      if (last) {
        for (std::size_t i = 0; i < v.size(); ++i) local[b + i] += v[i];
      } else {
        for (std::size_t i = 0; i < v.size(); ++i) v[i] += local[b + i];
        comm.isend(next, tag0_ + static_cast<std::uint64_t>(step + 1),
                   std::move(v), Traffic::kAllReduce);
      }
    }
  }
  // Allgather: rank me now owns the fully reduced chunk (me + 1) % r.
  // Fan it out to every peer directly — each sub-chunk message is built
  // once and shared by reference across the r-1 destinations, all sends
  // are posted eagerly before any blocking recv, so this phase costs one
  // latency round instead of r-1 serial forwarding hops, while per-rank
  // bytes stay at the ring bound (r-1 copies of one chunk each way).
  const std::uint64_t ag = tag0_ + static_cast<std::uint64_t>(r - 1);
  std::vector<int> peers;
  peers.reserve(static_cast<std::size_t>(r) - 1);
  for (int p = 1; p < r; ++p) peers.push_back((me + p) % r);
  comm.fanout_send(peers, ag, chunk((me + 1) % r), Traffic::kAllReduce);
  for (int p = 1; p < r; ++p) {
    const int src = (me + r - p) % r;
    comm.hop_recv(src, ag, chunk((src + 1) % r), /*accumulate=*/false);
  }
  finished_ = true;
}

}  // namespace aeris::swipe
