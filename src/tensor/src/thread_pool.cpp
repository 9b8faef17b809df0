#include "aeris/tensor/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace aeris {
namespace {

thread_local int t_serial_depth = 0;

}  // namespace

SerialRegionGuard::SerialRegionGuard() { ++t_serial_depth; }

SerialRegionGuard::~SerialRegionGuard() { --t_serial_depth; }

bool in_serial_region() { return t_serial_depth > 0; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  // The caller participates in parallel_for, so spawn one fewer worker.
  const std::size_t workers = num_threads > 0 ? num_threads - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
    }
    run_chunks();
  }
}

void ThreadPool::run_chunks() {
  for (;;) {
    // Claim-by-CAS (not blind fetch_add) so the counter never overshoots
    // job_limit_: a straggler from a finished job that races with the next
    // dispatch either sees the stale limit and leaves, or sees the new
    // limit — whose acquire load also makes the new job fields visible —
    // and validly helps with the new job.
    std::int64_t c = next_chunk_.load(std::memory_order_relaxed);
    for (;;) {
      if (c >= job_limit_.load(std::memory_order_acquire)) return;
      if (next_chunk_.compare_exchange_weak(c, c + 1,
                                            std::memory_order_acq_rel)) {
        break;
      }
    }
    const std::int64_t rel = c - job_base_;
    const std::int64_t begin = rel * job_chunk_;
    const std::int64_t end = std::min(job_n_, begin + job_chunk_);
    try {
      if (begin < end) (*job_fn_)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(err_mutex_);
      if (!error_) error_ = std::current_exception();
    }
    if (done_chunks_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job_limit_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& fn,
    std::int64_t grain) {
  if (n <= 0) return;
  const std::int64_t g = std::max<std::int64_t>(1, grain);
  const std::int64_t threads = static_cast<std::int64_t>(size());
  if (threads == 1 || n <= g || in_serial_region()) {
    fn(0, n);
    return;
  }
  // At least `grain` iterations per chunk; aim for a few chunks per thread
  // so the atomic counter load-balances uneven work.
  const std::int64_t chunk =
      std::max(g, (n + threads * 4 - 1) / (threads * 4));
  const std::int64_t num_chunks = (n + chunk - 1) / chunk;
  if (num_chunks == 1) {
    fn(0, n);
    return;
  }

  // One job descriptor: a caller that finds another dispatch in flight
  // (a second application thread, or a chunk dispatching again) runs its
  // range inline instead of overwriting the job. Bitwise-safe, because
  // every kernel splits only independent output rows across chunks.
  if (dispatch_busy_.exchange(true, std::memory_order_acquire)) {
    fn(0, n);
    return;
  }
  struct Release {
    std::atomic<bool>& busy;
    ~Release() { busy.store(false, std::memory_order_release); }
  } release{dispatch_busy_};

  std::int64_t limit;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_fn_ = &fn;
    job_n_ = n;
    job_chunk_ = chunk;
    job_base_ = next_chunk_.load(std::memory_order_relaxed);
    error_ = nullptr;
    limit = job_base_ + num_chunks;
    job_limit_.store(limit, std::memory_order_release);
    ++epoch_;
  }
  cv_.notify_all();

  run_chunks();  // caller participates

  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return done_chunks_.load(std::memory_order_acquire) == limit;
    });
  }
  if (error_) std::rethrow_exception(error_);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn,
                  std::int64_t grain) {
  ThreadPool::global().parallel_for(n, fn, grain);
}

}  // namespace aeris
