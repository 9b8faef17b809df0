#pragma once

#include <cstdint>
#include <vector>

#include "aeris/swipe/comm.hpp"

namespace aeris::swipe {

/// What an injected fault does when it fires.
enum class FaultKind : int {
  kKillRank = 0,        ///< the rank dies (throws InjectedFault)
  kDropMsg = 1,         ///< the message is charged but never delivered
  kDelayMsg = 2,        ///< the sender (on_recv: receiver) stalls `delay_ms`
  kCorruptPayload = 3,  ///< one payload bit is flipped in flight
};

/// One scheduled fault: fires when `rank` performs its `nth_send`-th send
/// (0-based, counted from the moment the plan is armed on the world), or
/// with `on_recv` its `nth_send`-th *delivered receive*. Triggering on
/// message ordinals rather than wall time is what makes every failure path
/// deterministic and therefore testable.
struct FaultEvent {
  FaultKind kind = FaultKind::kKillRank;
  int rank = -1;
  std::uint64_t nth_send = 0;
  int delay_ms = 0;
  /// XOR mask applied to the first payload element's bits (corrupt only).
  /// The default flips a mantissa bit, turning 1.0f into 0.5f.
  std::uint32_t corrupt_xor = 0x00800000u;
  /// Latched kill (kKillRank only): if the world is poisoned before this
  /// rank reaches its ordinal, the kill fires on the rank's next send (on
  /// the receive side: its next receive attempt, even on an empty queue)
  /// anyway — as an *originating* InjectedFault rather than a secondary
  /// PeerFailedError. This is what makes multi-kill drills stackable: the
  /// first kill poisons the world, and without latching every later kill
  /// was unreachable (the doomed rank unwound as a casualty before its
  /// ordinal came up). Exact-ordinal fires behave as before.
  bool latch = false;
  /// Receive side: the ordinal counts the rank's delivered receives
  /// (`recv`, `recv_shared` and a successful `PendingMsg::test`), never its
  /// sends. Only kDelayMsg (the receiver sleeps `delay_ms` after taking the
  /// message: a hang, not a crash) and kKillRank are allowed here.
  bool on_recv = false;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// A deterministic, seedable fault-injection schedule. Armed on a `World`
/// via `set_fault_plan`, which also resets the per-rank send and receive
/// counters so ordinals are relative to the arming point. The plan is
/// read-only once armed (no per-message mutation), so matching is
/// race-free by construction.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Deterministic pseudo-random plan: `n_events` events of `kind`, each
  /// targeting a seed-derived (rank, send ordinal < max_send). The same
  /// seed always produces the same schedule — the fault-determinism tests
  /// rely on this.
  static FaultPlan random(std::uint64_t seed, int nranks, int n_events,
                          std::uint64_t max_send,
                          FaultKind kind = FaultKind::kKillRank);

  /// Appends `ev`; throws std::invalid_argument for a receive-side event
  /// of a kind other than kDelayMsg or kKillRank.
  FaultPlan& add(const FaultEvent& ev);

  const std::vector<FaultEvent>& events() const { return events_; }

  /// The event (if any) scheduled for `rank`'s `seq`-th send (or, with
  /// `on_recv`, delivered receive). Read-only and safe to call
  /// concurrently from every rank thread.
  const FaultEvent* match(int rank, std::uint64_t seq, bool on_recv) const {
    for (const FaultEvent& ev : events_) {
      if (ev.rank == rank && ev.nth_send == seq && ev.on_recv == on_recv) {
        return &ev;
      }
    }
    return nullptr;
  }

  /// The latched kill scheduled for `rank` on the given side, if any —
  /// consulted by the world once it is poisoned so the rank can die its
  /// scheduled death even though its exact ordinal will never be reached.
  const FaultEvent* latched_kill(int rank, bool on_recv) const {
    for (const FaultEvent& ev : events_) {
      if (ev.rank == rank && ev.latch && ev.kind == FaultKind::kKillRank &&
          ev.on_recv == on_recv) {
        return &ev;
      }
    }
    return nullptr;
  }

 private:
  std::vector<FaultEvent> events_;
};

/// Thrown on the faulted rank itself when a kKillRank event fires. Derives
/// from PeerFailedError because from the world's perspective the injected
/// kill *is* the peer failure (the world is poisoned before the throw, so
/// the rank is dead to its peers even if user code swallows the exception).
class InjectedFault : public PeerFailedError {
 public:
  InjectedFault(int rank, std::uint64_t seq, bool on_recv = false);
};

}  // namespace aeris::swipe
