#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace aeris::serving {

/// Liveness bookkeeping for a set of peer ranks: last-heartbeat ages and
/// outstanding work-lease deadlines. The owner (one thread; typically the
/// serving front-end rank) records beats as heartbeat messages arrive and
/// opens/closes one lease per outstanding work pack; `expired()` names the
/// first rank that should be declared dead — stale heartbeat or an
/// overdue lease — so the owner can poison the world on its behalf and
/// trigger the requeue/recovery path even when the rank never throws
/// (hung, not dead). Time is injected by the caller so drills are
/// deterministic.
///
/// Elastic membership adds per-rank states on top of the two detectors:
/// a rank can be *unwatched* (a parked spare slot — exempt from both
/// detectors) or *on probation* (a joiner that is watched but not yet
/// trusted: it must stay clean for a caller-chosen window before
/// `probation_cleared` names it and `watch()` makes it a full member).
/// A probationary rank that goes silent is named by the heartbeat
/// detector even when the lease detector is enabled — probationers hold
/// no leases, and silence during vetting is disqualifying.
class HeartbeatMonitor {
 public:
  using Clock = std::chrono::steady_clock;

  /// `ranks` world ranks are monitored (rank ids are indices into the
  /// caller's alive-rank list, not world ranks — the caller maps).
  /// A timeout <= 0 disables that detector. All ranks start watched.
  HeartbeatMonitor(int ranks, double heartbeat_timeout_ms,
                   double lease_timeout_ms, Clock::time_point now)
      : heartbeat_timeout_ms_(heartbeat_timeout_ms),
        lease_timeout_ms_(lease_timeout_ms),
        last_beat_(static_cast<std::size_t>(ranks), now),
        leases_(static_cast<std::size_t>(ranks)),
        state_(static_cast<std::size_t>(ranks)) {}

  int ranks() const { return static_cast<int>(last_beat_.size()); }

  /// Removes `rank` from both detectors (a parked spare slot: it is not
  /// expected to heartbeat and must not be declared dead for silence).
  void unwatch(int rank) { state_[static_cast<std::size_t>(rank)].watched = false; }

  /// (Re-)admits `rank` as a full member: watched, off probation, its
  /// beat clock reset so parked silence is not retroactively counted.
  void watch(int rank, Clock::time_point now) {
    auto& st = state_[static_cast<std::size_t>(rank)];
    st.watched = true;
    st.on_probation = false;
    last_beat_[static_cast<std::size_t>(rank)] = now;
  }

  bool watched(int rank) const {
    return state_[static_cast<std::size_t>(rank)].watched;
  }

  /// Starts the probation window for a joiner. The rank is watched —
  /// silence gets it named by `expired()` — but the owner must not lease
  /// it work until `probation_cleared` names it.
  void begin_probation(int rank, Clock::time_point now) {
    auto& st = state_[static_cast<std::size_t>(rank)];
    st.watched = true;
    st.on_probation = true;
    st.probation_start = now;
    last_beat_[static_cast<std::size_t>(rank)] = now;
  }

  bool on_probation(int rank) const {
    return state_[static_cast<std::size_t>(rank)].on_probation;
  }

  /// First probationary rank whose window has elapsed with clean
  /// heartbeats (fresh beat at evaluation time; a silent probationer is
  /// instead surfaced by `expired()`). Returns -1 when none qualifies.
  int probation_cleared(Clock::time_point now, double window_ms) const {
    for (int r = 0; r < ranks(); ++r) {
      const auto& st = state_[static_cast<std::size_t>(r)];
      if (!st.on_probation || !st.watched) continue;
      if (ms(st.probation_start, now) < window_ms) continue;
      if (heartbeat_timeout_ms_ > 0.0 &&
          ms(last_beat_[static_cast<std::size_t>(r)], now) >
              heartbeat_timeout_ms_) {
        continue;
      }
      return r;
    }
    return -1;
  }

  /// A heartbeat (or any message — results count as liveness too) arrived
  /// from `rank`.
  void beat(int rank, Clock::time_point now) {
    last_beat_[static_cast<std::size_t>(rank)] = now;
  }

  /// A work pack was leased to `rank`; the lease is identified by the
  /// pack id and expires lease_timeout_ms from `now` unless closed.
  void open_lease(int rank, std::uint64_t pack_id, Clock::time_point now) {
    leases_[static_cast<std::size_t>(rank)].push_back(Lease{pack_id, now});
  }

  /// The pack's result arrived (or the lease was requeued elsewhere).
  void close_lease(int rank, std::uint64_t pack_id) {
    auto& ls = leases_[static_cast<std::size_t>(rank)];
    for (std::size_t i = 0; i < ls.size(); ++i) {
      if (ls[i].pack_id == pack_id) {
        ls.erase(ls.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  std::size_t open_leases(int rank) const {
    return leases_[static_cast<std::size_t>(rank)].size();
  }

  /// First rank that should be declared dead at `now`: its oldest lease is
  /// older than lease_timeout_ms, or (with no lease requirement) its last
  /// heartbeat is older than heartbeat_timeout_ms. Returns -1 when every
  /// rank is healthy. A rank with an open lease is held to *both* clocks:
  /// a healthy-but-slow rank keeps heartbeating while it computes, so only
  /// a rank that is silent AND overdue is named by the lease detector
  /// when heartbeats are enabled.
  int expired(Clock::time_point now) const {
    for (int r = 0; r < ranks(); ++r) {
      const auto& st = state_[static_cast<std::size_t>(r)];
      if (!st.watched) continue;  // parked spare
      const double beat_age_ms = ms(last_beat_[static_cast<std::size_t>(r)],
                                    now);
      const bool beat_stale =
          heartbeat_timeout_ms_ > 0.0 && beat_age_ms > heartbeat_timeout_ms_;
      if (lease_timeout_ms_ > 0.0) {
        for (const Lease& l : leases_[static_cast<std::size_t>(r)]) {
          if (ms(l.opened, now) > lease_timeout_ms_ &&
              (heartbeat_timeout_ms_ <= 0.0 || beat_stale)) {
            return r;
          }
        }
      }
      if (beat_stale && heartbeat_timeout_ms_ > 0.0 &&
          (lease_timeout_ms_ <= 0.0 || st.on_probation)) {
        return r;
      }
    }
    return -1;
  }

 private:
  struct Lease {
    std::uint64_t pack_id = 0;
    Clock::time_point opened{};
  };

  struct RankState {
    bool watched = true;
    bool on_probation = false;
    Clock::time_point probation_start{};
  };

  static double ms(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  }

  double heartbeat_timeout_ms_;
  double lease_timeout_ms_;
  std::vector<Clock::time_point> last_beat_;
  std::vector<std::vector<Lease>> leases_;
  std::vector<RankState> state_;
};

}  // namespace aeris::serving
