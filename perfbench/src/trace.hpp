#pragma once

// In-memory span buffer for the traced run. Spans are recorded from the
// benchmark's own files, around each call it makes into a layer of the
// program: name, start, end, parent span and request id. At the end of a
// traced run they are written as Chrome trace-event JSON (chrome://tracing
// or Perfetto read it) and summarised as self time per span name.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not tied to a request
  std::uint32_t tid = 0;
  /// Reconstructed from timings the program returns (queue wait and
  /// service inside a forecast call), not timed around a call.
  bool derived = false;
};

struct SelfTime {
  std::string name;
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Process-wide span sink. Disarmed, a Scope costs one relaxed load.
class Tracer {
 public:
  static Tracer& get();

  void arm(bool on);
  bool armed() const;

  std::int64_t now_ns() const;
  std::uint64_t next_id();
  void record(const SpanRecord& s);
  /// Adds a span whose interval is known after the fact.
  void record_derived(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t parent,
                      std::uint64_t request);

  std::size_t size() const;
  /// Self time per span name: a span's duration minus the part of it its
  /// children cover (children of one span never overlap here: each is
  /// either sequential on the same thread or a derived phase).
  std::vector<SelfTime> self_times() const;
  /// Writes Chrome trace-event JSON; returns false on an I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  Tracer() = default;

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> next_id_{1};
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span around one call; nests through a thread-local parent stack.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return rec_.id; }

 private:
  SpanRecord rec_;
  bool on_ = false;
};

}  // namespace perfbench
