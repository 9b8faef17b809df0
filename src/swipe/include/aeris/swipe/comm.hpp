#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace aeris::swipe {

class FaultPlan;
struct FaultEvent;

/// A peer rank died (escaped exception in World::run or an injected
/// kill). Instead of deadlocking, every blocked receive, PendingMsg::wait
/// and in-flight collective on every surviving rank throws this, naming
/// the rank that failed.
class PeerFailedError : public std::runtime_error {
 public:
  PeerFailedError(int failed_rank, const std::string& what_arg)
      : std::runtime_error(what_arg), failed_rank_(failed_rank) {}

  int failed_rank() const { return failed_rank_; }

 private:
  int failed_rank_;
};

/// A blocking receive exceeded the configured deadline
/// (`AERIS_COMM_TIMEOUT_MS`, or `World::set_timeout`). Carries a deadlock
/// dump — per-rank blocked op, the (src, tag) being awaited, pending
/// mailbox tags, and per-class byte counters — so a silent hang becomes an
/// actionable report.
class CommTimeoutError : public std::runtime_error {
 public:
  CommTimeoutError(const std::string& msg, std::string dump)
      : std::runtime_error(msg + "\n" + dump), dump_(std::move(dump)) {}

  const std::string& dump() const { return dump_; }

 private:
  std::string dump_;
};

/// Traffic classes tracked by the byte counters. These map onto the
/// paper's communication-overhead analysis (§V-A): alltoall from SP/WP,
/// send/recv from PP (and window shifting), and allreduce from gradient
/// synchronization, plus ZeRO-1's allgather-v and reduce-scatter-v. The
/// serving tier (work packs, results, heartbeats of the cluster forecast
/// server) gets its own class so inference traffic never skews the
/// training volume model.
/// Membership (join invites, fingerprint announces, admission verdicts of
/// the elastic cluster) is likewise split out: the handshake is control
/// plane, not serving volume.
enum class Traffic : int {
  kP2P = 0,
  kAllToAll = 1,
  kAllReduce = 2,
  kAllGather = 3,
  kReduceScatter = 4,
  kServing = 5,
  kMembership = 6,
};
inline constexpr int kTrafficClasses = 7;

class World;

/// Future handle for a nonblocking operation — the MPI_Request analogue.
/// Mailbox sends are buffered/eager, so an isend's handle is born
/// complete (like MPI_Ibsend); an irecv's handle completes once a
/// matching message has arrived and been claimed by `test()` or `wait()`.
/// A handle is single-use: `wait()` consumes the payload, and any further
/// `wait()`/`test()` — or any use of a default-constructed handle —
/// throws std::logic_error instead of silently returning a stale or empty
/// payload.
class PendingMsg {
 public:
  PendingMsg() = default;  ///< empty handle: any use throws

  /// Nonblocking completion poll (MPI_Test): claims the message if it has
  /// arrived. Returns true once the payload is held locally.
  bool test();
  /// Blocks until complete and returns the payload (empty for isend),
  /// consuming the handle.
  std::vector<float> wait();

 private:
  friend class World;
  explicit PendingMsg(World* world)  ///< completed-send handle (isend)
      : world_(world), done_(true), valid_(true) {}
  PendingMsg(World* world, int dst, int src, std::uint64_t tag)
      : world_(world),
        dst_(dst),
        src_(src),
        tag_(tag),
        done_(false),
        valid_(true) {}

  void require_usable(const char* op) const;

  World* world_ = nullptr;
  int dst_ = -1;
  int src_ = -1;
  std::uint64_t tag_ = 0;
  bool done_ = true;
  bool valid_ = false;
  bool consumed_ = false;
  std::vector<float> payload_;
};

/// In-process message-passing world: one mailbox per rank, ranks hosted on
/// caller-provided threads. This is the MPI-model substitute for the
/// oneCCL/RCCL fleet (see DESIGN.md): cooperative sends/recvs move data
/// between rank address spaces, collectives are built on point-to-point
/// transfers, and every byte is counted so the paper's communication
/// claims are *measured* rather than asserted.
class World {
 public:
  /// A queued message. Fan-out sends enqueue the same immutable payload at
  /// several destinations; `exclusive` marks a payload that has exactly one
  /// receiver from birth, which `recv` may therefore move out of instead of
  /// copying.
  struct Msg {
    std::shared_ptr<const std::vector<float>> data;
    bool exclusive = true;
  };

  explicit World(int nranks);

  int size() const { return nranks_; }

  /// Blocking tagged point-to-point primitives (world-rank addressed).
  void send(int src, int dst, std::uint64_t tag, std::vector<float> payload,
            Traffic traffic = Traffic::kP2P);
  std::vector<float> recv(int dst, int src, std::uint64_t tag);

  /// Nonblocking send: enqueues eagerly and returns a completed handle.
  /// Byte accounting is identical to the blocking path.
  PendingMsg isend(int src, int dst, std::uint64_t tag,
                   std::vector<float> payload,
                   Traffic traffic = Traffic::kP2P);
  /// Nonblocking receive: returns a handle that completes when a message
  /// matching (src, tag) arrives in dst's mailbox. Pre-posting irecvs lets
  /// callers drain multiple sources in arrival order instead of
  /// serializing on one mailbox wakeup per source.
  PendingMsg irecv(int dst, int src, std::uint64_t tag);

  /// Blocks until `rank`'s mailbox holds a message from any source on any
  /// tag, the world is poisoned, or `deadline` passes (time_point::max()
  /// waits without one). Returns false only on the deadline. It consumes
  /// nothing, runs no fault hooks and ignores the receive timeout: a rank
  /// that idles on this between nonblocking polls takes its messages, and
  /// meets the poison and any latched kill, through PendingMsg::test().
  bool wait_any(int rank, std::chrono::steady_clock::time_point deadline =
                              std::chrono::steady_clock::time_point::max());

  /// Enqueues one immutable payload at `dst` without copying it; callers
  /// fan a single buffer out to many destinations by calling this once per
  /// destination. Bytes are accounted per call — the network model charges
  /// each transmission even though the process holds one buffer.
  void send_shared(int src, int dst, std::uint64_t tag,
                   std::shared_ptr<const std::vector<float>> payload,
                   Traffic traffic);
  /// Blocking receive that surfaces the payload by reference: zero-copy
  /// even for fan-out messages (the caller reads the shared buffer).
  std::shared_ptr<const std::vector<float>> recv_shared(int dst, int src,
                                                        std::uint64_t tag);

  /// Bytes moved so far per traffic class (whole world).
  std::int64_t bytes(Traffic t) const;
  /// Bytes *sent* by one rank per traffic class.
  std::int64_t rank_bytes(int rank, Traffic t) const;
  void reset_counters();

  /// Spawns `fn(rank)` on size() threads and joins them all. A rank that
  /// exits with an exception poisons the world (see `poison`), so no
  /// surviving rank can deadlock on it. After the join, the first
  /// exception recorded is rethrown as the root cause; every rank's
  /// failure (rank id + message) is retrievable via `failures()`.
  void run(const std::function<void(int rank)>& fn);

  /// One rank's failure as observed by `run`. `secondary` marks a failure
  /// that is a *consequence* of another rank's death (a plain
  /// PeerFailedError raised while the world was already poisoned) rather
  /// than an originating fault (an InjectedFault or an escaped user
  /// exception) — recovery layers use it to decide which ranks actually
  /// died when several failures land in one window.
  struct RankFailure {
    int rank = -1;
    std::string message;
    bool secondary = false;
  };
  /// All failures from the most recent `run`, in the order observed (the
  /// rethrown root cause prefers an originating failure over secondary
  /// PeerFailedErrors). Valid after `run` returns or throws.
  const std::vector<RankFailure>& failures() const { return failures_; }

  /// Marks the world failed on behalf of `rank` and wakes every mailbox:
  /// all blocked and future receives throw PeerFailedError naming the
  /// first failed rank. Poisoning is permanent — recovery means building
  /// a new World (checkpoint/restart), not resuscitating this one.
  void poison(int rank, const std::string& why);
  bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire);
  }
  /// First rank that failed, or -1 if the world is healthy.
  int failed_rank() const {
    return failed_rank_.load(std::memory_order_acquire);
  }

  /// Arms (or with nullptr disarms) a deterministic fault-injection plan
  /// and resets the per-rank send and delivered-receive counters, so
  /// FaultEvent ordinals count from this call. With no plan armed the hot
  /// path pays one acquire load and one predicted branch per send and per
  /// receive.
  void set_fault_plan(std::shared_ptr<const FaultPlan> plan);

  /// Deadline for blocking receives and PendingMsg::wait in milliseconds;
  /// <= 0 disables. The constructor reads the default from
  /// AERIS_COMM_TIMEOUT_MS (unset: off); a value that does not parse in
  /// full throws std::invalid_argument naming the variable. On expiry the
  /// blocked op throws CommTimeoutError carrying `deadlock_dump()`.
  void set_timeout(std::int64_t ms) {
    timeout_ms_.store(ms, std::memory_order_relaxed);
  }
  std::int64_t timeout_ms() const {
    return timeout_ms_.load(std::memory_order_relaxed);
  }

  /// Human-readable snapshot of the communication state: per-rank blocked
  /// op and awaited (src, tag), pending mailbox tags, per-class byte
  /// counters. This is what CommTimeoutError carries.
  std::string deadlock_dump() const;

 private:
  friend class PendingMsg;

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::map<std::pair<int, std::uint64_t>, std::deque<Msg>> queues;
    // Blocked-op diagnostics for deadlock_dump(), guarded by `mutex` (a
    // rank only ever blocks on its own mailbox, so there is exactly one
    // writer).
    const char* blocked_op = nullptr;
    int blocked_src = -1;
    std::uint64_t blocked_tag = 0;
  };

  /// Nonblocking pop of a matching message; true on success. Throws
  /// PeerFailedError if nothing matches and the world is poisoned.
  bool try_recv(int dst, int src, std::uint64_t tag, std::vector<float>& out);

  /// Blocks until a (src, tag) message is queued at `box`, honouring
  /// poisoning and the timeout. `lock` must hold box.mutex on entry and
  /// does on (normal) exit.
  void await_message(Mailbox& box, std::unique_lock<std::mutex>& lock,
                     int dst, int src, std::uint64_t tag, const char* op);

  [[noreturn]] void throw_peer_failed(const char* op, int rank, int src,
                                      std::uint64_t tag) const;

  /// Fault hook shared by send/send_shared: charges the per-send counter
  /// and returns the matching event, if any. Null when no plan is armed.
  const FaultEvent* next_send_fault(int src);
  /// Applies a kill/delay fault; returns true if the message must be
  /// dropped. Corruption is payload-representation-specific and stays in
  /// the callers.
  bool apply_send_fault(const FaultEvent& ev, int src, std::uint64_t seq);
  /// Receive-side hooks, run only with a plan armed. The first runs on
  /// every receive attempt of `dst` and, once the world is poisoned, fires
  /// `dst`'s latched receive-side kill; the second charges the
  /// delivered-receive counter once a message is taken and applies the
  /// matching kill or delay.
  void fire_latched_recv_kill(const FaultPlan& plan, int dst);
  void apply_recv_fault(const FaultPlan& plan, int dst);

  int nranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::array<std::atomic<std::int64_t>, kTrafficClasses>>
      rank_bytes_;

  // --- fault-tolerance state ---
  std::shared_ptr<const FaultPlan> fault_plan_;  ///< owns; raw ptr below
  std::atomic<const FaultPlan*> fault_{nullptr};
  std::vector<std::atomic<std::uint64_t>> send_seq_;
  std::vector<std::atomic<std::uint64_t>> recv_seq_;
  /// One-shot per-rank kill latch: a rank dies at most once per armed
  /// plan, whether its kill fires at the exact ordinal or via the latched
  /// post-poison path. Reset when a plan is (re)armed.
  std::vector<std::atomic<bool>> kill_fired_;
  std::atomic<std::int64_t> timeout_ms_{0};
  std::atomic<bool> poisoned_{false};
  std::atomic<int> failed_rank_{-1};
  mutable std::mutex poison_mutex_;  ///< guards poison_why_ and failures_
  std::string poison_why_;
  std::vector<RankFailure> failures_;
};

class RingAllreduce;

/// A communication group: an ordered subset of world ranks with a private
/// tag namespace (like an MPI communicator). Every collective must be
/// entered by all members. Group construction is deterministic — each
/// rank builds the same group list locally, which replaces MPI_Comm_split.
class Communicator {
 public:
  Communicator(World& world, std::vector<int> members, int my_world_rank,
               std::uint64_t group_tag);

  int rank() const { return my_rank_; }
  int size() const { return static_cast<int>(members_.size()); }
  int world_rank(int group_rank) const {
    return members_[static_cast<std::size_t>(group_rank)];
  }

  void send(int dst, std::uint64_t tag, std::vector<float> payload,
            Traffic traffic = Traffic::kP2P);
  std::vector<float> recv(int src, std::uint64_t tag);
  PendingMsg isend(int dst, std::uint64_t tag, std::vector<float> payload,
                   Traffic traffic = Traffic::kP2P);
  PendingMsg irecv(int src, std::uint64_t tag);

  /// In-place ring allreduce (sum): reduce-scatter + allgather, the
  /// bandwidth-optimal pattern used by gradient synchronization. Each ring
  /// hop is split into pipeline sub-chunks so a receiver starts reducing
  /// sub-chunk k while sub-chunk k+1 is still in flight.
  void allreduce_sum(std::span<float> data);

  /// Segmented accessor for ragged collectives: fills `part` with (or, when
  /// `accumulate`, adds into `part`) the local contribution for section
  /// `section`, elements [offset, offset + part.size()). Lets callers with
  /// non-contiguous storage (e.g. per-parameter gradient tensors) feed a
  /// collective without staging everything through one flat buffer first.
  using SegmentLoad = std::function<void(
      int section, std::size_t offset, std::span<float> part, bool accumulate)>;
  /// Delivery callback for ragged collectives: consumes elements
  /// [offset, offset + part.size()) of remote rank `section`'s contribution.
  /// Sub-chunks of a section always arrive in offset order.
  using SectionSink = std::function<void(int section, std::size_t offset,
                                         std::span<const float> part)>;

  /// In-place ragged allgather (allgather-v): `data` is the rank-order
  /// concatenation of per-rank sections of `counts[r]` floats; on entry
  /// only the caller's own section is valid, on exit all are. One
  /// collective moves (size-1) * sum(counts) floats in total.
  void allgatherv(std::span<float> data, std::span<const std::int64_t> counts);

  /// Allgather-v that scatters on receipt: the caller's section `mine` is
  /// fanned out once, and every remote section is handed to `sink` as it
  /// arrives instead of being staged into a flat destination buffer (the
  /// caller's own section is not redelivered). Byte accounting matches the
  /// in-place overload exactly.
  void allgatherv(std::span<const float> mine,
                  std::span<const std::int64_t> counts,
                  const SectionSink& sink);

  /// Ragged ring reduce-scatter (sum): section r (counts[r] floats) ends
  /// fully reduced on rank r, written to `out_mine`. Local contributions
  /// are pulled through `load`, so segmented storage feeds the ring
  /// directly. Ring hops pass the in-flight buffer through (receive, add
  /// the local contribution, forward) — the reduction of sub-chunk k
  /// overlaps the transfer of sub-chunk k+1, and no rank ever restages a
  /// section it merely relays. Per-rank send volume is
  /// (sum(counts) - counts[rank]) floats: every section except its own.
  void reduce_scatterv(std::span<const std::int64_t> counts,
                       std::span<float> out_mine, const SegmentLoad& load);
  /// Flat-buffer convenience overload: reduces section r of `data` into
  /// rank r's own section in place; other sections are left unspecified.
  void reduce_scatterv(std::span<float> data,
                       std::span<const std::int64_t> counts);

  /// send[i] goes to rank i; returns recv[i] from rank i. The Ulysses
  /// primitive (§V-A: "alltoall collective before and after attention").
  std::vector<std::vector<float>> alltoall(
      std::vector<std::vector<float>> send);

 private:
  friend class RingAllreduce;

  // Collective tags live in a high sub-space so they never collide with
  // user point-to-point tags, and advance in lockstep on every member.
  std::uint64_t tagged(std::uint64_t tag) const {
    return (group_tag_ << 40) | tag;
  }
  /// Reserves `n` consecutive collective tags; every member must reserve
  /// in the same order (lockstep epochs).
  std::uint64_t reserve_epochs(std::uint64_t n) {
    const std::uint64_t base = collective_epoch_;
    collective_epoch_ += n;
    return base;
  }

  /// One pipelined ring hop: sends `chunk` to `dst` in sub-chunks under a
  /// single tag (FIFO per (src, tag) preserves order).
  void hop_send(int dst, std::uint64_t tag, std::span<const float> chunk,
                Traffic traffic);
  /// Receives the matching sub-chunks from `src` into `chunk`, either
  /// accumulating (reduce hop) or overwriting (gather hop). Reduction
  /// starts on sub-chunk k while k+1 is still in flight.
  void hop_recv(int src, std::uint64_t tag, std::span<float> chunk,
                bool accumulate);
  /// Fan-out hop: sends `chunk` to every rank in `dsts` while building each
  /// sub-chunk message only once (shared immutable payload). Byte counters
  /// advance per destination, exactly as a hop_send loop would.
  void fanout_send(std::span<const int> dsts, std::uint64_t tag,
                   std::span<const float> chunk, Traffic traffic);

  World& world_;
  std::vector<int> members_;
  int my_rank_ = -1;
  std::uint64_t group_tag_;
  std::uint64_t collective_epoch_ = 0;
};

/// Asynchronous ring allreduce-sum handle. Construction reserves the
/// collective's tag window and eagerly launches the first reduce-scatter
/// hop; `finish()` runs the remaining hops to completion. The SWiPe
/// engine keeps one handle per gradient bucket so the tail of backward
/// (and downstream stages' compute) overlaps gradient reduction, with a
/// drain barrier before the optimizer step. Byte accounting and the
/// per-element reduction order are identical to `allreduce_sum` on the
/// same buffer.
class RingAllreduce {
 public:
  RingAllreduce(Communicator& comm, std::span<float> data);

  /// Completes the collective (idempotent). Every group member must call
  /// finish() on its handles in launch order.
  void finish();
  bool finished() const { return finished_; }

 private:
  Communicator* comm_ = nullptr;
  std::span<float> data_;
  std::uint64_t tag0_ = 0;
  bool finished_ = true;
};

}  // namespace aeris::swipe
