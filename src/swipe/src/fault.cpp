#include "aeris/swipe/fault.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace aeris::swipe {
namespace {

// splitmix64: tiny, dependency-free, and fully determined by the seed —
// the same seed always yields the same fault schedule on every platform.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string fault_message(int rank, std::uint64_t seq, bool on_recv) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "rank %d failed (injected kill at %s #%llu)", rank,
                on_recv ? "receive" : "send",
                static_cast<unsigned long long>(seq));
  return buf;
}

}  // namespace

FaultPlan FaultPlan::random(std::uint64_t seed, int nranks, int n_events,
                            std::uint64_t max_send, FaultKind kind) {
  if (nranks <= 0) throw std::invalid_argument("FaultPlan: nranks must be > 0");
  if (max_send == 0) throw std::invalid_argument("FaultPlan: max_send == 0");
  FaultPlan plan;
  std::uint64_t state = seed;
  for (int i = 0; i < n_events; ++i) {
    FaultEvent ev;
    ev.kind = kind;
    ev.rank = static_cast<int>(splitmix64(state) %
                               static_cast<std::uint64_t>(nranks));
    ev.nth_send = splitmix64(state) % max_send;
    ev.delay_ms = static_cast<int>(splitmix64(state) % 10);
    plan.add(ev);
  }
  return plan;
}

FaultPlan& FaultPlan::add(const FaultEvent& ev) {
  if (ev.on_recv && ev.kind != FaultKind::kDelayMsg &&
      ev.kind != FaultKind::kKillRank) {
    throw std::invalid_argument(
        "FaultPlan::add: a receive-side event must be kDelayMsg or kKillRank");
  }
  events_.push_back(ev);
  return *this;
}

InjectedFault::InjectedFault(int rank, std::uint64_t seq, bool on_recv)
    : PeerFailedError(rank, fault_message(rank, seq, on_recv)) {}

}  // namespace aeris::swipe
