#include "aeris/swipe/comm.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

namespace aeris::swipe {
namespace {

std::vector<int> all_ranks(int n) {
  std::vector<int> out(static_cast<std::size_t>(n));
  std::iota(out.begin(), out.end(), 0);
  return out;
}

TEST(World, SendRecvDelivers) {
  World world(2);
  world.run([&](int rank) {
    if (rank == 0) {
      world.send(0, 1, 7, {1.0f, 2.0f, 3.0f});
    } else {
      const auto msg = world.recv(1, 0, 7);
      ASSERT_EQ(msg.size(), 3u);
      EXPECT_FLOAT_EQ(msg[2], 3.0f);
    }
  });
}

TEST(World, TagsAndSourcesAreIsolated) {
  World world(3);
  world.run([&](int rank) {
    if (rank == 0) {
      world.send(0, 2, 1, {10.0f});
    } else if (rank == 1) {
      world.send(1, 2, 1, {20.0f});
      world.send(1, 2, 2, {30.0f});
    } else {
      // Receive in an order unrelated to send order.
      EXPECT_FLOAT_EQ(world.recv(2, 1, 2)[0], 30.0f);
      EXPECT_FLOAT_EQ(world.recv(2, 0, 1)[0], 10.0f);
      EXPECT_FLOAT_EQ(world.recv(2, 1, 1)[0], 20.0f);
    }
  });
}

TEST(World, FifoPerSourceAndTag) {
  World world(2);
  world.run([&](int rank) {
    if (rank == 0) {
      for (float i = 0; i < 5; ++i) world.send(0, 1, 9, {i});
    } else {
      for (float i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(world.recv(1, 0, 9)[0], i);
    }
  });
}

TEST(World, IsendIsBufferedAndBornComplete) {
  World world(2);
  world.run([&](int rank) {
    if (rank == 0) {
      // Mailbox sends are eager/buffered: the handle completes at enqueue
      // time (MPI_Ibsend semantics) and wait() is a no-op.
      PendingMsg h = world.isend(0, 1, 3, {1.0f, 2.0f});
      EXPECT_TRUE(h.test());
      EXPECT_TRUE(h.wait().empty());
    } else {
      const auto msg = world.recv(1, 0, 3);
      ASSERT_EQ(msg.size(), 2u);
      EXPECT_FLOAT_EQ(msg[1], 2.0f);
    }
  });
}

TEST(World, IrecvCompletesOnArrivalNotPostOrder) {
  World world(2);
  world.run([&](int rank) {
    if (rank == 0) {
      PendingMsg first = world.irecv(0, 1, 5);
      PendingMsg second = world.irecv(0, 1, 6);
      // The sender blocks on the go-message, so nothing can have arrived.
      EXPECT_FALSE(first.test());
      EXPECT_FALSE(second.test());
      world.send(0, 1, 1, {0.0f});  // go: tag 6 is sent first
      // The later-posted handle completes first — completion tracks
      // message arrival, not post order.
      EXPECT_FLOAT_EQ(second.wait()[0], 6.0f);
      EXPECT_FALSE(first.test());
      world.send(0, 1, 2, {0.0f});  // go: now send tag 5
      EXPECT_FLOAT_EQ(first.wait()[0], 5.0f);
    } else {
      world.recv(1, 0, 1);
      world.send(1, 0, 6, {6.0f});
      world.recv(1, 0, 2);
      world.send(1, 0, 5, {5.0f});
    }
  });
}

TEST(World, CountsBytesPerTrafficClass) {
  World world(2);
  world.run([&](int rank) {
    if (rank == 0) {
      world.send(0, 1, 1, std::vector<float>(10), Traffic::kP2P);
      world.send(0, 1, 2, std::vector<float>(5), Traffic::kAllToAll);
    } else {
      world.recv(1, 0, 1);
      world.recv(1, 0, 2);
    }
  });
  EXPECT_EQ(world.bytes(Traffic::kP2P), 40);
  EXPECT_EQ(world.bytes(Traffic::kAllToAll), 20);
  EXPECT_EQ(world.rank_bytes(0, Traffic::kP2P), 40);
  EXPECT_EQ(world.rank_bytes(1, Traffic::kP2P), 0);
  world.reset_counters();
  EXPECT_EQ(world.bytes(Traffic::kP2P), 0);
}

TEST(World, RunPropagatesExceptions) {
  World world(2);
  EXPECT_THROW(world.run([&](int rank) {
    if (rank == 1) throw std::runtime_error("rank failure");
  }),
               std::runtime_error);
}

class AllreduceSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(AllreduceSizes, RingAllreduceSums) {
  const auto [nranks, elems] = GetParam();
  World world(nranks);
  world.run([&](int rank) {
    Communicator comm(world, all_ranks(nranks), rank, 2);
    std::vector<float> data(static_cast<std::size_t>(elems));
    for (int i = 0; i < elems; ++i) {
      data[static_cast<std::size_t>(i)] =
          static_cast<float>(rank * 100 + i);
    }
    comm.allreduce_sum(data);
    for (int i = 0; i < elems; ++i) {
      // sum over ranks of (r*100 + i)
      const float want = static_cast<float>(100 * (nranks * (nranks - 1) / 2) +
                                            i * nranks);
      ASSERT_FLOAT_EQ(data[static_cast<std::size_t>(i)], want)
          << "rank " << rank << " elem " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AllreduceSizes,
    ::testing::Values(std::pair{1, 8}, std::pair{2, 8}, std::pair{3, 7},
                      std::pair{4, 16}, std::pair{5, 3}, std::pair{8, 64}));

TEST(Comm, AllreduceVolumeMatchesRingBound) {
  // Ring allreduce moves 2*(R-1)/R * N elements per rank.
  const int n = 4, elems = 64;
  World world(n);
  world.run([&](int rank) {
    Communicator comm(world, all_ranks(n), rank, 2);
    std::vector<float> data(static_cast<std::size_t>(elems), 1.0f);
    comm.allreduce_sum(data);
  });
  const std::int64_t per_rank = world.rank_bytes(0, Traffic::kAllReduce);
  EXPECT_EQ(per_rank, static_cast<std::int64_t>(2 * (n - 1) *
                                                (elems / n) * sizeof(float)));
}

TEST(Comm, AllgathervGathersRaggedSections) {
  const int n = 4;
  World world(n);
  const std::vector<std::int64_t> counts = {1, 3, 0, 2};  // rank 2 is empty
  world.run([&](int rank) {
    Communicator comm(world, all_ranks(n), rank, 8);
    std::vector<std::int64_t> offset(static_cast<std::size_t>(n) + 1, 0);
    for (int r = 0; r < n; ++r) {
      offset[static_cast<std::size_t>(r) + 1] =
          offset[static_cast<std::size_t>(r)] +
          counts[static_cast<std::size_t>(r)];
    }
    std::vector<float> data(static_cast<std::size_t>(offset.back()), -1.0f);
    for (std::int64_t j = 0; j < counts[static_cast<std::size_t>(rank)]; ++j) {
      data[static_cast<std::size_t>(offset[static_cast<std::size_t>(rank)] +
                                    j)] = static_cast<float>(rank * 10 + j);
    }
    comm.allgatherv(data, counts);
    for (int r = 0; r < n; ++r) {
      for (std::int64_t j = 0; j < counts[static_cast<std::size_t>(r)]; ++j) {
        EXPECT_FLOAT_EQ(
            data[static_cast<std::size_t>(offset[static_cast<std::size_t>(r)] +
                                          j)],
            static_cast<float>(r * 10 + j))
            << "rank " << rank << " section " << r << " elem " << j;
      }
    }
  });
  // Ring allgather-v volume: every section travels size-1 hops, exactly
  // what a per-section broadcast loop would move.
  const std::int64_t total = 1 + 3 + 0 + 2;
  EXPECT_EQ(world.bytes(Traffic::kAllGather),
            static_cast<std::int64_t>((n - 1) * total * sizeof(float)));
}

TEST(Comm, ReduceScattervSumsRaggedSectionsForTheirOwners) {
  const int n = 4;
  World world(n);
  const std::vector<std::int64_t> counts = {2, 3, 0, 1};  // rank 2 is empty
  world.run([&](int rank) {
    Communicator comm(world, all_ranks(n), rank, 11);
    std::vector<std::int64_t> offset(static_cast<std::size_t>(n) + 1, 0);
    for (int r = 0; r < n; ++r) {
      offset[static_cast<std::size_t>(r) + 1] =
          offset[static_cast<std::size_t>(r)] +
          counts[static_cast<std::size_t>(r)];
    }
    // Every rank contributes a distinct value per element so a dropped or
    // double-counted contribution is visible in the sum.
    std::vector<float> data(static_cast<std::size_t>(offset.back()));
    for (std::size_t j = 0; j < data.size(); ++j) {
      data[j] = static_cast<float>(100 * (rank + 1) + static_cast<int>(j));
    }
    comm.reduce_scatterv(data, counts);
    // Sum over ranks of 100*(r+1) + j = 100*n*(n+1)/2 + n*j.
    for (std::int64_t j = 0; j < counts[static_cast<std::size_t>(rank)]; ++j) {
      const std::size_t at = static_cast<std::size_t>(
          offset[static_cast<std::size_t>(rank)] + j);
      EXPECT_FLOAT_EQ(data[at],
                      static_cast<float>(100 * n * (n + 1) / 2 +
                                         n * static_cast<int>(at)))
          << "rank " << rank << " elem " << j;
    }
  });
  // Ring reduce-scatter-v volume: each rank forwards every section except
  // its own exactly once.
  const std::int64_t total = 2 + 3 + 0 + 1;
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(world.rank_bytes(r, Traffic::kReduceScatter),
              static_cast<std::int64_t>(
                  (total - counts[static_cast<std::size_t>(r)]) *
                  static_cast<std::int64_t>(sizeof(float))))
        << "rank " << r;
  }
}

TEST(Comm, ReduceScattervSegmentedLoadMatchesFlatBuffer) {
  // The segmented-load overload (what ZeRO-1 feeds per-parameter gradient
  // tensors through) must produce bitwise the same sums as staging the
  // same values through a flat buffer first.
  const int n = 3;
  World world(n);
  const std::vector<std::int64_t> counts = {2, 1, 2};
  std::vector<std::vector<float>> flat_out(static_cast<std::size_t>(n));
  std::vector<std::vector<float>> seg_out(static_cast<std::size_t>(n));
  world.run([&](int rank) {
    std::vector<float> data(5);
    for (std::size_t j = 0; j < data.size(); ++j) {
      data[j] = 0.37f * static_cast<float>(rank + 1) +
                0.011f * static_cast<float>(j);
    }
    const std::int64_t offset[] = {0, 2, 3, 5};
    Communicator flat_comm(world, all_ranks(n), rank, 12);
    std::vector<float> flat = data;
    flat_comm.reduce_scatterv(flat, counts);
    const std::size_t b = static_cast<std::size_t>(offset[rank]);
    const std::size_t c = static_cast<std::size_t>(counts[
        static_cast<std::size_t>(rank)]);
    flat_out[static_cast<std::size_t>(rank)]
        .assign(flat.begin() + static_cast<std::ptrdiff_t>(b),
                flat.begin() + static_cast<std::ptrdiff_t>(b + c));

    Communicator seg_comm(world, all_ranks(n), rank, 13);
    std::vector<float> mine(c);
    seg_comm.reduce_scatterv(
        counts, mine,
        [&](int section, std::size_t off, std::span<float> part,
            bool accumulate) {
          const float* src =
              data.data() + offset[section] + static_cast<std::ptrdiff_t>(off);
          for (std::size_t i = 0; i < part.size(); ++i) {
            part[i] = accumulate ? part[i] + src[i] : src[i];
          }
        });
    seg_out[static_cast<std::size_t>(rank)] = mine;
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(seg_out[static_cast<std::size_t>(r)],
              flat_out[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

TEST(Comm, ConcurrentCollectivesOnSplitGroupsStayIsolated) {
  // 2x2 split: every rank belongs to a row group and a column group with
  // interleaved membership (the engine's sp/wp situation). Ranks run the
  // two groups' collectives back to back with no barrier, so row and
  // column traffic between the same rank pairs is concurrently in flight;
  // any tag leakage between the namespaces corrupts a sum.
  World world(4);
  world.run([&](int rank) {
    const int row = rank / 2, col = rank % 2;
    Communicator rows(world,
                      row == 0 ? std::vector<int>{0, 1} : std::vector<int>{2, 3},
                      rank, 20 + static_cast<std::uint64_t>(row));
    Communicator cols(world,
                      col == 0 ? std::vector<int>{0, 2} : std::vector<int>{1, 3},
                      rank, 30 + static_cast<std::uint64_t>(col));
    for (int iter = 0; iter < 25; ++iter) {
      std::vector<float> rdata(9, static_cast<float>(rank + iter));
      rows.allreduce_sum(rdata);
      std::vector<float> cdata(9, static_cast<float>(rank * 2 + iter));
      cols.allreduce_sum(cdata);
      // Row members are {2*row, 2*row+1}; column members are {col, col+2}.
      const float rwant = static_cast<float>(4 * row + 1 + 2 * iter);
      const float cwant = static_cast<float>(4 * col + 4 + 2 * iter);
      for (const float v : rdata) ASSERT_FLOAT_EQ(v, rwant) << "iter " << iter;
      for (const float v : cdata) ASSERT_FLOAT_EQ(v, cwant) << "iter " << iter;
      std::vector<float> gathered(2, -1.0f);
      gathered[static_cast<std::size_t>(rows.rank())] =
          static_cast<float>(rank);
      const std::int64_t counts[] = {1, 1};
      rows.allgatherv(gathered, counts);
      EXPECT_FLOAT_EQ(gathered[0], static_cast<float>(2 * row));
      EXPECT_FLOAT_EQ(gathered[1], static_cast<float>(2 * row + 1));
    }
  });
}

TEST(Comm, AlltoallTransposesBuffers) {
  const int n = 4;
  World world(n);
  world.run([&](int rank) {
    Communicator comm(world, all_ranks(n), rank, 4);
    std::vector<std::vector<float>> send(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      send[static_cast<std::size_t>(d)] = {
          static_cast<float>(rank * 10 + d)};
    }
    const auto recv = comm.alltoall(std::move(send));
    for (int s = 0; s < n; ++s) {
      ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_FLOAT_EQ(recv[static_cast<std::size_t>(s)][0],
                      static_cast<float>(s * 10 + rank));
    }
  });
}

TEST(Comm, AlltoallSupportsRaggedBuffers) {
  const int n = 3;
  World world(n);
  world.run([&](int rank) {
    Communicator comm(world, all_ranks(n), rank, 5);
    std::vector<std::vector<float>> send(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      send[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(rank + d), 1.0f);
    }
    const auto recv = comm.alltoall(std::move(send));
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(recv[static_cast<std::size_t>(s)].size(),
                static_cast<std::size_t>(s + rank));
    }
  });
}

TEST(Comm, SubgroupIsolation) {
  // Two disjoint groups with different tags communicate independently.
  World world(4);
  world.run([&](int rank) {
    const std::vector<int> group =
        rank < 2 ? std::vector<int>{0, 1} : std::vector<int>{2, 3};
    Communicator comm(world, group, rank, rank < 2 ? 10 : 11);
    std::vector<float> data = {static_cast<float>(rank)};
    comm.allreduce_sum(data);
    if (rank < 2) {
      EXPECT_FLOAT_EQ(data[0], 1.0f);  // 0 + 1
    } else {
      EXPECT_FLOAT_EQ(data[0], 5.0f);  // 2 + 3
    }
  });
}

TEST(Comm, RequiresMembership) {
  World world(2);
  EXPECT_THROW(Communicator(world, {1}, 0, 1), std::invalid_argument);
}

// wait_any: the idle wait of a rank that polls nonblocking receives. It
// wakes on a message from any source or tag, on poison, or at its deadline.
TEST(World, WaitAnyWakesOnAQueuedMessage) {
  World world(3);
  world.send(2, 1, /*tag=*/7, {1.0f});
  // Already queued: true at once, even with the deadline behind it.
  EXPECT_TRUE(world.wait_any(1, std::chrono::steady_clock::now()));
  EXPECT_EQ(world.recv(1, 2, /*tag=*/7), std::vector<float>({1.0f}));

  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    world.send(0, 1, /*tag=*/9, {2.0f});
  });
  EXPECT_TRUE(world.wait_any(1));  // no deadline: only the send wakes it
  sender.join();
  EXPECT_EQ(world.recv(1, 0, /*tag=*/9), std::vector<float>({2.0f}));
}

TEST(World, WaitAnyReturnsFalseAtTheDeadline) {
  World world(2);
  world.send(1, 0, /*tag=*/1, {1.0f});  // another rank's mail does not count
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(world.wait_any(1, t0 + std::chrono::milliseconds(30)));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(30));
  EXPECT_THROW(world.wait_any(2, t0), std::invalid_argument);
}

TEST(World, WaitAnyWakesOnPoison) {
  World world(2);
  world.set_timeout(5);  // the receive deadline does not apply to the wait
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    world.poison(0, "test poison");
  });
  EXPECT_TRUE(world.wait_any(1));
  killer.join();
  EXPECT_TRUE(world.poisoned());
  EXPECT_TRUE(world.wait_any(1));  // a poisoned world never blocks it again
}

// Handles are single-use: misuse throws instead of silently returning a
// stale or empty payload.
TEST(PendingMsg, DefaultConstructedHandleThrowsOnUse) {
  PendingMsg h;
  EXPECT_THROW(h.test(), std::logic_error);
  EXPECT_THROW(h.wait(), std::logic_error);
}

TEST(PendingMsg, WaitConsumesTheHandle) {
  World world(2);
  world.send(1, 0, /*tag=*/4, {1.0f, 2.0f});
  PendingMsg h = world.irecv(0, 1, /*tag=*/4);
  EXPECT_EQ(h.wait(), std::vector<float>({1.0f, 2.0f}));
  EXPECT_THROW(h.wait(), std::logic_error);
  EXPECT_THROW(h.test(), std::logic_error);
}

TEST(PendingMsg, ConsumedIsendHandleThrowsToo) {
  World world(2);
  PendingMsg h = world.isend(0, 1, /*tag=*/4, {1.0f});
  EXPECT_TRUE(h.test());  // repeated polling before wait() is fine
  EXPECT_TRUE(h.test());
  EXPECT_TRUE(h.wait().empty());
  EXPECT_THROW(h.wait(), std::logic_error);
  EXPECT_THROW(h.test(), std::logic_error);
}

}  // namespace
}  // namespace aeris::swipe
