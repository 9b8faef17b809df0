#include "aeris/swipe/fault.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace aeris::swipe {
namespace {

// The headline robustness claim: an injected rank-kill during a collective
// surfaces as PeerFailedError on EVERY surviving rank — nobody hangs.
TEST(Fault, KillDuringCollectivePropagatesToEverySurvivor) {
  constexpr int kRanks = 4;
  constexpr int kVictim = 1;
  World world(kRanks);
  auto plan = std::make_shared<FaultPlan>();
  plan->add(FaultEvent{FaultKind::kKillRank, kVictim, /*nth_send=*/5});
  world.set_fault_plan(plan);

  enum class Outcome { kNone, kFinished, kInjected, kPeerFailed, kOther };
  std::vector<Outcome> outcome(kRanks, Outcome::kNone);
  std::vector<int> blamed(kRanks, -2);

  EXPECT_THROW(
      world.run([&](int rank) {
        Communicator comm(world, {0, 1, 2, 3}, rank, /*group_tag=*/1);
        try {
          // Enough rounds that every survivor eventually needs a message
          // the dead rank will never send.
          std::vector<float> data(1024, static_cast<float>(rank));
          for (int iter = 0; iter < 64; ++iter) comm.allreduce_sum(data);
          outcome[static_cast<std::size_t>(rank)] = Outcome::kFinished;
        } catch (const InjectedFault& e) {
          outcome[static_cast<std::size_t>(rank)] = Outcome::kInjected;
          blamed[static_cast<std::size_t>(rank)] = e.failed_rank();
          throw;
        } catch (const PeerFailedError& e) {
          outcome[static_cast<std::size_t>(rank)] = Outcome::kPeerFailed;
          blamed[static_cast<std::size_t>(rank)] = e.failed_rank();
          throw;
        }
      }),
      PeerFailedError);

  EXPECT_EQ(outcome[kVictim], Outcome::kInjected);
  for (int r = 0; r < kRanks; ++r) {
    if (r == kVictim) continue;
    EXPECT_EQ(outcome[static_cast<std::size_t>(r)], Outcome::kPeerFailed)
        << "rank " << r << " did not observe the failure";
  }
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(blamed[static_cast<std::size_t>(r)], kVictim) << "rank " << r;
  }
  EXPECT_TRUE(world.poisoned());
  EXPECT_EQ(world.failed_rank(), kVictim);
  // Every rank's failure is recorded with its id (satellite: aggregation).
  EXPECT_EQ(world.failures().size(), static_cast<std::size_t>(kRanks));
}

// Even if user code swallows the InjectedFault, the world is already
// poisoned — the rank is dead to its peers, exactly like a process kill.
TEST(Fault, SwallowedKillStillPoisonsTheWorld) {
  World world(2);
  auto plan = std::make_shared<FaultPlan>();
  plan->add(FaultEvent{FaultKind::kKillRank, /*rank=*/1, /*nth_send=*/0});
  world.set_fault_plan(plan);

  std::atomic<bool> peer_saw_failure{false};
  world.run([&](int rank) {
    if (rank == 1) {
      try {
        world.send(1, 0, /*tag=*/7, {1.0f});
      } catch (const InjectedFault&) {
        // swallowed on purpose
      }
      return;
    }
    try {
      (void)world.recv(0, 1, /*tag=*/7);
    } catch (const PeerFailedError& e) {
      peer_saw_failure = true;
      EXPECT_EQ(e.failed_rank(), 1);
    }
  });
  EXPECT_TRUE(peer_saw_failure);
}

// Same seed, same schedule: the failing op is reproducible run-to-run.
TEST(Fault, PlanIsDeterministicForASeed) {
  const FaultPlan a = FaultPlan::random(42, 8, 5, 100);
  const FaultPlan b = FaultPlan::random(42, 8, 5, 100);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i], b.events()[i]) << "event " << i;
  }
  const FaultPlan c = FaultPlan::random(43, 8, 5, 100);
  bool any_differ = false;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    if (!(a.events()[i] == c.events()[i])) any_differ = true;
  }
  EXPECT_TRUE(any_differ) << "different seeds produced identical plans";
}

// Run-to-run determinism end to end: the same plan kills the same rank at
// the same send ordinal, producing an identical error message twice.
TEST(Fault, SameSeedFailsTheSameWayTwice) {
  const FaultPlan seeded =
      FaultPlan::random(/*seed=*/7, /*nranks=*/3, /*n_events=*/1,
                        /*max_send=*/4);
  std::vector<std::string> messages;
  for (int run = 0; run < 2; ++run) {
    World world(3);
    world.set_fault_plan(std::make_shared<FaultPlan>(seeded));
    try {
      world.run([&](int rank) {
        Communicator comm(world, {0, 1, 2}, rank, 1);
        std::vector<float> data(64, 1.0f);
        for (int iter = 0; iter < 16; ++iter) comm.allreduce_sum(data);
      });
      FAIL() << "kill did not fire";
    } catch (const PeerFailedError& e) {
      messages.push_back(e.what());
    }
  }
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_NE(messages[0].find("injected kill"), std::string::npos);
}

TEST(Fault, DroppedMessageIsChargedButNeverDelivered) {
  World world(2);
  auto plan = std::make_shared<FaultPlan>();
  plan->add(FaultEvent{FaultKind::kDropMsg, /*rank=*/0, /*nth_send=*/0});
  world.set_fault_plan(plan);

  world.send(0, 1, /*tag=*/1, {1.0f, 2.0f, 3.0f});  // dropped
  world.send(0, 1, /*tag=*/2, {4.0f});              // delivered
  PendingMsg dropped = world.irecv(1, 0, /*tag=*/1);
  EXPECT_FALSE(dropped.test());
  EXPECT_EQ(world.recv(1, 0, /*tag=*/2), std::vector<float>({4.0f}));
  // The network model still charges the dropped bytes: they were sent.
  EXPECT_EQ(world.bytes(Traffic::kP2P),
            static_cast<std::int64_t>(4 * sizeof(float)));
}

TEST(Fault, CorruptedPayloadFlipsOneBit) {
  World world(2);
  auto plan = std::make_shared<FaultPlan>();
  plan->add(
      FaultEvent{FaultKind::kCorruptPayload, /*rank=*/0, /*nth_send=*/0});
  world.set_fault_plan(plan);

  world.send(0, 1, /*tag=*/1, {1.0f, 2.0f});
  const std::vector<float> got = world.recv(1, 0, /*tag=*/1);
  ASSERT_EQ(got.size(), 2u);
  // The default mask (0x00800000) flips a mantissa-adjacent bit: 1.0 -> 0.5.
  EXPECT_EQ(got[0], 0.5f);
  EXPECT_EQ(got[1], 2.0f);
}

TEST(Fault, DelayedMessageStillArrives) {
  World world(2);
  auto plan = std::make_shared<FaultPlan>();
  plan->add(FaultEvent{FaultKind::kDelayMsg, /*rank=*/0, /*nth_send=*/0,
                       /*delay_ms=*/5});
  world.set_fault_plan(plan);
  world.send(0, 1, /*tag=*/3, {9.0f});
  EXPECT_EQ(world.recv(1, 0, /*tag=*/3), std::vector<float>({9.0f}));
}

TEST(Fault, DisarmingThePlanRestoresNormalOperation) {
  World world(2);
  auto plan = std::make_shared<FaultPlan>();
  plan->add(FaultEvent{FaultKind::kDropMsg, /*rank=*/0, /*nth_send=*/0});
  world.set_fault_plan(plan);
  world.set_fault_plan(nullptr);
  world.send(0, 1, /*tag=*/1, {1.0f});
  EXPECT_EQ(world.recv(1, 0, /*tag=*/1), std::vector<float>({1.0f}));
}

// A blocked receive with no sender turns into an actionable report instead
// of a silent hang (satellite: timeout path).
TEST(Fault, TimeoutCarriesDeadlockDump) {
  World world(2);
  world.set_timeout(50);
  std::string dump;
  std::string what;
  world.run([&](int rank) {
    if (rank != 0) return;  // rank 1 never sends
    try {
      (void)world.recv(0, 1, /*tag=*/99);
      FAIL() << "recv returned without a sender";
    } catch (const CommTimeoutError& e) {
      dump = e.dump();
      what = e.what();
    }
  });
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("rank 0"), std::string::npos);
  EXPECT_NE(what.find("timed out"), std::string::npos);
  EXPECT_NE(what.find("tag 99"), std::string::npos);
  // The dump names the per-class byte counters.
  EXPECT_NE(dump.find("bytes:"), std::string::npos);
}

// The dump reflects live mailbox state: pending (undrained) tags show up.
TEST(Fault, DeadlockDumpListsPendingTags) {
  World world(2);
  world.send(0, 1, /*tag=*/5, {1.0f, 2.0f});
  const std::string dump = world.deadlock_dump();
  EXPECT_NE(dump.find("pending"), std::string::npos);
  EXPECT_NE(dump.find("tag 5"), std::string::npos);
}

// Multi-rank faults are diagnosable: run aggregates every rank's failure
// and prefers the originating exception over secondary PeerFailedErrors.
TEST(Fault, RunAggregatesAllRankFailures) {
  World world(3);
  try {
    world.run([&](int rank) {
      if (rank == 0) throw std::runtime_error("boom on rank 0");
      (void)world.recv(rank, 0, /*tag=*/1);  // never satisfied
    });
    FAIL() << "run did not rethrow";
  } catch (const PeerFailedError&) {
    FAIL() << "secondary failure rethrown instead of the root cause";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom on rank 0");
  }
  const auto& failures = world.failures();
  ASSERT_EQ(failures.size(), 3u);
  std::vector<bool> seen(3, false);
  for (const auto& f : failures) {
    ASSERT_GE(f.rank, 0);
    ASSERT_LT(f.rank, 3);
    seen[static_cast<std::size_t>(f.rank)] = true;
    EXPECT_FALSE(f.message.empty());
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

// Sends into a poisoned world fail too — failure reaches ranks that only
// ever produce data, not just blocked consumers.
TEST(Fault, SendIntoPoisonedWorldThrows) {
  World world(2);
  world.poison(1, "test poison");
  EXPECT_THROW(world.send(0, 1, /*tag=*/1, {1.0f}), PeerFailedError);
}

// The fault hook runs before the poison check, so a second scheduled kill
// fires at its exact ordinal even after the first death poisoned the
// world — both deaths are recorded as originating, which is what makes
// multi-kill FaultPlans stackable without rendezvous helpers.
TEST(Fault, SecondExactKillFiresInAPoisonedWorld) {
  World world(3);
  auto plan = std::make_shared<FaultPlan>();
  plan->add(FaultEvent{FaultKind::kKillRank, /*rank=*/1, /*nth_send=*/0});
  plan->add(FaultEvent{FaultKind::kKillRank, /*rank=*/2, /*nth_send=*/0});
  world.set_fault_plan(plan);

  EXPECT_THROW(world.send(1, 0, /*tag=*/1, {1.0f}), InjectedFault);
  EXPECT_TRUE(world.poisoned());
  // Rank 2's send into the poisoned world still dies its scheduled death
  // (InjectedFault), not a secondary PeerFailedError.
  EXPECT_THROW(world.send(2, 0, /*tag=*/1, {1.0f}), InjectedFault);
  // A rank with no scheduled kill gets the ordinary poison semantics.
  EXPECT_THROW(world.send(0, 1, /*tag=*/1, {1.0f}), PeerFailedError);
}

// A latched kill at an unreachable ordinal fires on the rank's next send
// once the world is poisoned, and run() records it as originating.
TEST(Fault, LatchedKillFiresAfterPoisonAsOriginating) {
  World world(3);
  auto plan = std::make_shared<FaultPlan>();
  plan->add(FaultEvent{FaultKind::kKillRank, /*rank=*/1, /*nth_send=*/1});
  FaultEvent latched;
  latched.kind = FaultKind::kKillRank;
  latched.rank = 2;
  latched.nth_send = 1000000;  // never reached: only the latch can fire it
  latched.latch = true;
  plan->add(latched);
  world.set_fault_plan(plan);

  EXPECT_THROW(world.run([&](int rank) {
    if (rank == 1) {
      world.send(1, 0, /*tag=*/1, {1.0f});  // send 0: clean
      world.send(1, 0, /*tag=*/1, {2.0f});  // send 1: dies
      return;
    }
    if (rank == 2) {
      // Keep sending until something throws: the latch turns the first
      // post-poison send into this rank's scheduled death.
      for (int i = 0; i < 100000; ++i) {
        world.send(2, 0, /*tag=*/2, {static_cast<float>(i)});
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      FAIL() << "latched kill never fired";
    }
    // Rank 0 consumes rank 1's clean first message, then blocks on a
    // message that will never come.
    (void)world.recv(0, 1, /*tag=*/1);
    (void)world.recv(0, 1, /*tag=*/3);
  }),
               PeerFailedError);

  bool r1_originating = false, r2_originating = false;
  for (const World::RankFailure& f : world.failures()) {
    if (f.rank == 1 && !f.secondary) r1_originating = true;
    if (f.rank == 2 && !f.secondary) r2_originating = true;
  }
  EXPECT_TRUE(r1_originating) << "exact kill not recorded as originating";
  EXPECT_TRUE(r2_originating) << "latched kill not recorded as originating";
}

// An armed latch on a run that never poisons is inert: the clean path is
// bitwise-unaffected by merely arming the plan.
TEST(Fault, ArmedLatchIsInertWithoutPoison) {
  World world(2);
  auto plan = std::make_shared<FaultPlan>();
  FaultEvent latched;
  latched.kind = FaultKind::kKillRank;
  latched.rank = 1;
  latched.nth_send = 1000000;
  latched.latch = true;
  plan->add(latched);
  world.set_fault_plan(plan);

  world.run([&](int rank) {
    if (rank == 1) {
      for (int i = 0; i < 8; ++i) {
        world.send(1, 0, /*tag=*/1, {static_cast<float>(i)});
      }
      return;
    }
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(world.recv(0, 1, /*tag=*/1),
                std::vector<float>({static_cast<float>(i)}));
    }
  });
  EXPECT_FALSE(world.poisoned());
}

// A message that was already queued before the failure is still
// deliverable — only unsatisfiable operations propagate the poison.
TEST(Fault, QueuedMessagesSurvivePoisoning) {
  World world(2);
  world.send(0, 1, /*tag=*/4, {8.0f});
  world.poison(0, "test poison");
  EXPECT_EQ(world.recv(1, 0, /*tag=*/4), std::vector<float>({8.0f}));
  PendingMsg empty = world.irecv(1, 0, /*tag=*/4);
  EXPECT_THROW(empty.test(), PeerFailedError);
}

FaultEvent recv_event(FaultKind kind, int rank, std::uint64_t nth) {
  FaultEvent ev;
  ev.kind = kind;
  ev.rank = rank;
  ev.nth_send = nth;
  ev.on_recv = true;
  return ev;
}

// A receive-side event counts its rank's delivered receives — recv,
// recv_shared and a successful PendingMsg::test alike — and fires on
// exactly the nth: not on another rank's receives, not on an empty poll.
TEST(Fault, RecvEventFiresOnExactlyTheNthDeliveredReceive) {
  World world(3);
  auto plan = std::make_shared<FaultPlan>();
  plan->add(recv_event(FaultKind::kKillRank, /*rank=*/1, /*nth=*/2));
  world.set_fault_plan(plan);
  for (int i = 0; i < 3; ++i) {
    world.send(0, 1, /*tag=*/1, {static_cast<float>(i)});
    world.send(0, 2, /*tag=*/1, {static_cast<float>(i)});
  }
  // Rank 2's receives never move rank 1's ordinal.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(world.recv(2, 0, /*tag=*/1),
              std::vector<float>({static_cast<float>(i)}));
  }
  PendingMsg empty = world.irecv(1, 0, /*tag=*/9);
  EXPECT_FALSE(empty.test());  // an empty poll delivers nothing
  EXPECT_EQ(world.recv(1, 0, /*tag=*/1), std::vector<float>({0.0f}));  // #0
  EXPECT_EQ(*world.recv_shared(1, 0, /*tag=*/1),
            std::vector<float>({1.0f}));  // #1
  EXPECT_FALSE(world.poisoned());
  PendingMsg third = world.irecv(1, 0, /*tag=*/1);
  try {
    (void)third.test();  // #2
    FAIL() << "receive-side kill did not fire";
  } catch (const InjectedFault& e) {
    EXPECT_EQ(e.failed_rank(), 1);
    EXPECT_NE(std::string(e.what()).find("receive #2"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(world.poisoned());
  EXPECT_EQ(world.failed_rank(), 1);
}

// A receive-side delay is a hang, not a crash: the receiver stalls after
// taking the message, and the payload arrives intact.
TEST(Fault, RecvDelayDeliversThePayloadIntactAfterTheDelay) {
  World world(2);
  auto plan = std::make_shared<FaultPlan>();
  FaultEvent hang = recv_event(FaultKind::kDelayMsg, /*rank=*/1, /*nth=*/0);
  hang.delay_ms = 40;
  plan->add(hang);
  world.set_fault_plan(plan);
  world.send(0, 1, /*tag=*/3, {1.0f, 2.0f, 3.0f});
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<float> got = world.recv(1, 0, /*tag=*/3);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(got, std::vector<float>({1.0f, 2.0f, 3.0f}));
  EXPECT_GE(waited, std::chrono::milliseconds(40));
  EXPECT_FALSE(world.poisoned());
}

// A latched receive-side kill fires on the rank's next receive attempt
// once the world is poisoned, even with nothing queued: as an originating
// InjectedFault, both from a poll and from a receive the poison woke.
TEST(Fault, LatchedRecvKillFiresOnAnEmptyQueueInAPoisonedWorld) {
  {
    World world(2);
    auto plan = std::make_shared<FaultPlan>();
    FaultEvent kill = recv_event(FaultKind::kKillRank, 1, /*nth=*/1000000);
    kill.latch = true;
    plan->add(kill);
    world.set_fault_plan(plan);
    PendingMsg idle = world.irecv(1, 0, /*tag=*/1);
    EXPECT_FALSE(idle.test());  // armed but inert while the world is healthy
    world.poison(0, "test poison");
    EXPECT_THROW(idle.test(), InjectedFault);
    // One death per rank: the next attempt is an ordinary casualty.
    try {
      (void)idle.test();
      FAIL() << "poisoned empty poll returned";
    } catch (const InjectedFault&) {
      FAIL() << "latched kill fired twice";
    } catch (const PeerFailedError&) {
    }
  }
  World world(3);
  auto plan = std::make_shared<FaultPlan>();
  FaultEvent kill = recv_event(FaultKind::kKillRank, 2, /*nth=*/1000000);
  kill.latch = true;
  plan->add(kill);
  world.set_fault_plan(plan);
  EXPECT_THROW(world.run([&](int rank) {
    if (rank == 0) throw std::runtime_error("boom on rank 0");
    (void)world.recv(rank, 0, /*tag=*/1);  // never satisfied
  }),
               std::runtime_error);
  bool r1_secondary = false, r2_originating = false;
  for (const World::RankFailure& f : world.failures()) {
    if (f.rank == 1 && f.secondary) r1_secondary = true;
    if (f.rank == 2 && !f.secondary) r2_originating = true;
  }
  EXPECT_TRUE(r1_secondary) << "unarmed rank not a secondary casualty";
  EXPECT_TRUE(r2_originating) << "latched receive kill not originating";
}

// World::wait_any consumes nothing and runs no fault hooks: waits do not
// move the receive ordinal, and a latched kill fires on the receive after
// the wait, not inside it.
TEST(Fault, WaitAnyLeavesReceiveOrdinalsAndLatchesAlone) {
  World world(2);
  auto plan = std::make_shared<FaultPlan>();
  plan->add(recv_event(FaultKind::kKillRank, /*rank=*/1, /*nth=*/1));
  world.set_fault_plan(plan);
  world.send(0, 1, /*tag=*/1, {0.0f});
  world.send(0, 1, /*tag=*/1, {1.0f});
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(world.wait_any(1));
  PendingMsg first = world.irecv(1, 0, /*tag=*/1);
  ASSERT_TRUE(first.test());  // receive #0: the waits counted for nothing
  EXPECT_EQ(first.wait(), std::vector<float>({0.0f}));
  EXPECT_TRUE(world.wait_any(1));
  PendingMsg second = world.irecv(1, 0, /*tag=*/1);
  EXPECT_THROW(second.test(), InjectedFault);  // receive #1

  World idle(2);
  auto latched = std::make_shared<FaultPlan>();
  FaultEvent kill = recv_event(FaultKind::kKillRank, 1, /*nth=*/1000000);
  kill.latch = true;
  latched->add(kill);
  idle.set_fault_plan(latched);
  idle.poison(0, "test poison");
  EXPECT_NO_THROW(EXPECT_TRUE(idle.wait_any(1)));
  PendingMsg rx = idle.irecv(1, 0, /*tag=*/1);
  EXPECT_THROW(rx.test(), InjectedFault);
}

// Sends and receives keep separate ordinals: receives never advance a
// send-side event, and sends never advance a receive-side one.
TEST(Fault, SendOrdinalsAreUnaffectedByReceives) {
  World world(2);
  auto plan = std::make_shared<FaultPlan>();
  plan->add(FaultEvent{FaultKind::kDropMsg, /*rank=*/1, /*nth_send=*/1});
  plan->add(recv_event(FaultKind::kKillRank, /*rank=*/1, /*nth=*/2));
  world.set_fault_plan(plan);
  for (int i = 0; i < 3; ++i) {
    world.send(0, 1, /*tag=*/1, {static_cast<float>(i)});
  }
  (void)world.recv(1, 0, /*tag=*/1);       // receive #0
  world.send(1, 0, /*tag=*/2, {0.0f});     // send #0: delivered
  (void)world.recv(1, 0, /*tag=*/1);       // receive #1
  world.send(1, 0, /*tag=*/2, {1.0f});     // send #1: dropped
  world.send(1, 0, /*tag=*/2, {2.0f});     // send #2: delivered
  EXPECT_THROW(world.recv(1, 0, /*tag=*/1), InjectedFault);  // receive #2
  EXPECT_EQ(world.recv(0, 1, /*tag=*/2), std::vector<float>({0.0f}));
  EXPECT_EQ(world.recv(0, 1, /*tag=*/2), std::vector<float>({2.0f}));
}

TEST(Fault, AddRefusesDropAndCorruptOnTheReceiveSide) {
  FaultPlan plan;
  EXPECT_THROW(plan.add(recv_event(FaultKind::kDropMsg, 0, 0)),
               std::invalid_argument);
  EXPECT_THROW(plan.add(recv_event(FaultKind::kCorruptPayload, 0, 0)),
               std::invalid_argument);
  EXPECT_TRUE(plan.events().empty());
  plan.add(recv_event(FaultKind::kDelayMsg, 0, 0));
  plan.add(recv_event(FaultKind::kKillRank, 0, 1));
  EXPECT_EQ(plan.events().size(), 2u);
}

// Disarming restores plain receives, and re-arming restarts the receive
// ordinals from zero.
TEST(Fault, DisarmingRestoresPlainReceives) {
  World world(2);
  auto plan = std::make_shared<FaultPlan>();
  plan->add(recv_event(FaultKind::kKillRank, /*rank=*/1, /*nth=*/1));
  world.set_fault_plan(plan);
  world.send(0, 1, /*tag=*/1, {1.0f});
  EXPECT_EQ(world.recv(1, 0, /*tag=*/1), std::vector<float>({1.0f}));  // #0
  world.set_fault_plan(nullptr);
  for (int i = 0; i < 3; ++i) {
    world.send(0, 1, /*tag=*/1, {static_cast<float>(i)});
    EXPECT_EQ(world.recv(1, 0, /*tag=*/1),
              std::vector<float>({static_cast<float>(i)}));
  }
  EXPECT_FALSE(world.poisoned());
  world.set_fault_plan(plan);  // ordinals restart: #1 is two receives away
  world.send(0, 1, /*tag=*/1, {4.0f});
  world.send(0, 1, /*tag=*/1, {5.0f});
  EXPECT_EQ(world.recv(1, 0, /*tag=*/1), std::vector<float>({4.0f}));
  EXPECT_THROW(world.recv(1, 0, /*tag=*/1), InjectedFault);
}

// AERIS_COMM_TIMEOUT_MS is read with the strict rule of every AERIS_*
// knob: garbage throws naming the variable instead of turning deadlines
// off, and values <= 0 still mean "off".
class ScopedCommTimeout {
 public:
  explicit ScopedCommTimeout(const char* value) {
    ::setenv("AERIS_COMM_TIMEOUT_MS", value, 1);
  }
  ~ScopedCommTimeout() { ::unsetenv("AERIS_COMM_TIMEOUT_MS"); }
  ScopedCommTimeout(const ScopedCommTimeout&) = delete;
  ScopedCommTimeout& operator=(const ScopedCommTimeout&) = delete;
};

TEST(Fault, CommTimeoutEnvRejectsGarbageNamingTheVariable) {
  for (const char* bad : {"abc", "10abc"}) {
    ScopedCommTimeout env(bad);
    try {
      World world(2);
      ADD_FAILURE() << "\"" << bad << "\" parsed";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("AERIS_COMM_TIMEOUT_MS"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
}

TEST(Fault, CommTimeoutEnvReadsValuesAndKeepsOffForNonPositive) {
  {
    ScopedCommTimeout env("25");
    EXPECT_EQ(World(2).timeout_ms(), 25);
  }
  for (const char* off : {"0", "-5"}) {
    ScopedCommTimeout env(off);
    EXPECT_LE(World(2).timeout_ms(), 0) << off;
  }
  EXPECT_EQ(World(2).timeout_ms(), 0);  // unset: off
}

}  // namespace
}  // namespace aeris::swipe
