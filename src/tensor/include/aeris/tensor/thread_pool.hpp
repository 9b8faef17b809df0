#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aeris {

/// Fixed-size worker pool with a chunk-counter `parallel_for`.
///
/// Compute kernels (GEMM, attention, elementwise) split their iteration
/// space into chunks claimed from a shared atomic counter; the calling
/// thread participates, so a pool of size 1 degenerates to serial
/// execution with no synchronization overhead. Dispatch publishes a single
/// job descriptor and bumps an epoch — no per-chunk queue or mutex — so
/// the fork-join cost is one notify plus one atomic claim per chunk. The
/// `grain` parameter lets small kernels run inline instead of paying even
/// that.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }

  /// Runs fn(begin, end) over [0, n) split into chunks of at least
  /// min(grain, n) iterations, blocking until all chunks complete.
  /// Exceptions from chunks propagate (the first one captured is rethrown
  /// on the caller). When n <= grain or the pool has one thread the call
  /// runs inline with zero synchronization. Safe to call from several
  /// threads at once: while one dispatch is in flight, other callers run
  /// their whole range inline.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t, std::int64_t)>& fn,
                    std::int64_t grain = 1);

  /// Process-wide pool sized from std::thread::hardware_concurrency().
  static ThreadPool& global();

 private:
  void worker_loop();
  // Claims and runs chunks of the current job until it is exhausted.
  void run_chunks();

  std::vector<std::thread> workers_;
  std::mutex mutex_;  // guards job publication + epoch/stop signaling
  std::condition_variable cv_;       // workers: "a new job was published"
  std::condition_variable done_cv_;  // caller: "the last chunk finished"
  std::uint64_t epoch_ = 0;          // guarded by mutex_
  bool stop_ = false;                // guarded by mutex_

  // Current job descriptor. Written under mutex_ before the epoch bump;
  // workers that claim a chunk id below job_limit_ are guaranteed (by the
  // acquire load of job_limit_) to observe these writes.
  const std::function<void(std::int64_t, std::int64_t)>* job_fn_ = nullptr;
  std::int64_t job_n_ = 0;
  std::int64_t job_chunk_ = 0;
  std::int64_t job_base_ = 0;  // first global chunk id of this job

  // Chunk ids are global and monotonic across jobs: a straggler observing
  // a stale job_limit_ simply sees "no work" and never consumes a chunk
  // that belongs to the next job.
  std::atomic<std::int64_t> next_chunk_{0};
  std::atomic<std::int64_t> done_chunks_{0};
  std::atomic<std::int64_t> job_limit_{0};

  // Try-lock over the job descriptor: held from publication until the
  // last chunk finishes; a dispatcher that fails to take it runs inline.
  std::atomic<bool> dispatch_busy_{false};

  std::exception_ptr error_;  // first chunk exception (guarded by err_mutex_)
  std::mutex err_mutex_;
};

/// Convenience wrapper over the global pool.
void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn,
                  std::int64_t grain = 1);

/// While alive on a thread, every parallel_for issued from that thread runs
/// inline on the caller instead of dispatching to the pool.
///
/// This is the threading contract for application-level parallelism (e.g.
/// the parallel ensemble engine, whose workers each run whole forward
/// passes): workers wrap themselves in a SerialRegionGuard and keep every
/// kernel on their own thread instead of contending for the pool's single
/// job descriptor (a contended dispatch would run inline anyway, after a
/// failed try-lock). Results are unchanged: kernels split only
/// independent output rows across chunks (GEMM M-strips, attention
/// (batch, head) problems, norm rows), so inline execution is
/// bitwise-identical to pooled execution.
///
/// Guards nest; the region ends when the outermost guard is destroyed.
class SerialRegionGuard {
 public:
  SerialRegionGuard();
  ~SerialRegionGuard();
  SerialRegionGuard(const SerialRegionGuard&) = delete;
  SerialRegionGuard& operator=(const SerialRegionGuard&) = delete;
};

/// True while the calling thread is inside a SerialRegionGuard.
bool in_serial_region();

}  // namespace aeris
