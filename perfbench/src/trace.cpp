#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<std::uint32_t> g_next_tid{1};
thread_local std::vector<std::uint64_t> t_stack;
thread_local std::uint32_t t_tid = 0;

std::uint32_t this_tid() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::arm(bool on) { armed_.store(on, std::memory_order_relaxed); }
bool Tracer::armed() const { return armed_.load(std::memory_order_relaxed); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint64_t Tracer::next_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(const SpanRecord& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

void Tracer::record_derived(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::uint64_t parent,
                            std::uint64_t request) {
  SpanRecord s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = std::max(start_ns, end_ns);
  s.id = next_id();
  s.parent = parent;
  s.request = request;
  s.tid = this_tid();
  s.derived = true;
  record(s);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<SelfTime> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfTime> by_name;
  for (const SpanRecord& s : spans_) {
    SelfTime& st = by_name[s.name];
    st.name = s.name;
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    st.count += 1;
    st.total_ms += static_cast<double>(dur) * 1e-6;
    st.self_ms += static_cast<double>(std::max<std::int64_t>(0, dur - covered)) *
                  1e-6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, st] : by_name) out.push_back(st);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu,\"derived\":%s}}%s\n",
                 s.name, s.tid, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 s.derived ? "true" : "false",
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Scope::Scope(const char* name, std::uint64_t request) {
  Tracer& tr = Tracer::get();
  on_ = tr.armed();
  if (!on_) return;
  rec_.name = name;
  rec_.id = tr.next_id();
  rec_.parent = t_stack.empty() ? 0 : t_stack.back();
  rec_.request = request;
  rec_.tid = this_tid();
  t_stack.push_back(rec_.id);
  rec_.start_ns = tr.now_ns();
}

Scope::~Scope() {
  if (!on_) return;
  Tracer& tr = Tracer::get();
  rec_.end_ns = tr.now_ns();
  t_stack.pop_back();
  tr.record(rec_);
}

}  // namespace perfbench
