#include "aeris/tensor/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

namespace aeris {
namespace {

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(10, [&](std::int64_t, std::int64_t) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, NMuchLargerThanThreads) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(100000, [&](std::int64_t b, std::int64_t e) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) local += i;
    total += local;
  });
  EXPECT_EQ(total.load(), 100000LL * 99999 / 2);
}

TEST(ThreadPool, NSmallerThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::int64_t b, std::int64_t) {
                                   if (b == 0) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(64, [&](std::int64_t b, std::int64_t e) {
      count += static_cast<int>(e - b);
    });
    EXPECT_EQ(count.load(), 64);
  }
}

TEST(ThreadPool, GrainRunsSmallRangeInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  int calls = 0;
  // n <= grain: must be a single inline invocation on the caller.
  pool.parallel_for(
      100,
      [&](std::int64_t b, std::int64_t e) {
        seen = std::this_thread::get_id();
        ++calls;
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 100);
      },
      /*grain=*/128);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, GrainBoundsChunkSize) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(
      1000,
      [&](std::int64_t b, std::int64_t e) {
        {
          std::lock_guard<std::mutex> lock(mu);
          chunks.emplace_back(b, e);
        }
        for (std::int64_t i = b; i < e; ++i) {
          hits[static_cast<std::size_t>(i)]++;
        }
      },
      /*grain=*/64);
  // Coverage is still exact...
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // ...and every chunk except possibly the last holds >= grain iterations.
  EXPECT_LE(chunks.size(), static_cast<std::size_t>(1000 / 64 + 1));
  int small = 0;
  for (const auto& [b, e] : chunks) {
    if (e - b < 64) ++small;
  }
  EXPECT_LE(small, 1);
}

TEST(ThreadPool, ExceptionWithGrainPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(
                   1000,
                   [&](std::int64_t b, std::int64_t) {
                     if (b == 0) throw std::runtime_error("boom");
                   },
                   /*grain=*/16),
               std::runtime_error);
}

TEST(ThreadPool, ManyBackToBackDispatches) {
  // Stresses the epoch/chunk-counter handoff: a straggler from job N must
  // never corrupt job N+1's chunk accounting.
  ThreadPool pool(4);
  for (int round = 0; round < 500; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(97, [&](std::int64_t b, std::int64_t e) {
      count += static_cast<int>(e - b);
    });
    ASSERT_EQ(count.load(), 97) << "round " << round;
  }
}

// Dispatch is a try-lock over the single job descriptor: concurrent
// callers and a chunk that dispatches again run their range inline, and
// every range is still covered exactly once.
TEST(ThreadPool, ConcurrentCallersEachCoverTheirRange) {
  ThreadPool pool(4);
  auto caller = [&pool](bool* ok) {
    *ok = true;
    for (int round = 0; round < 200; ++round) {
      std::vector<std::atomic<int>> hits(257);
      pool.parallel_for(257, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          hits[static_cast<std::size_t>(i)]++;
        }
      });
      for (const auto& h : hits) *ok = *ok && h.load() == 1;
    }
  };
  bool ok1 = false, ok2 = false;
  std::thread t1(caller, &ok1);
  std::thread t2(caller, &ok2);
  t1.join();
  t2.join();
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
}

TEST(ThreadPool, NestedDispatchRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64 * 32);
  pool.parallel_for(64, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      pool.parallel_for(32, [&](std::int64_t jb, std::int64_t je) {
        for (std::int64_t j = jb; j < je; ++j) {
          hits[static_cast<std::size_t>(i * 32 + j)]++;
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<int> count{0};
  parallel_for(17, [&](std::int64_t b, std::int64_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 17);
}

}  // namespace
}  // namespace aeris
