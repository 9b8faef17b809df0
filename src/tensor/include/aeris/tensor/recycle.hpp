#pragma once

#include <cstddef>
#include <memory>

namespace aeris {

namespace detail {
struct RecycleBin;
}  // namespace detail

/// While alive, hands the calling thread's freed Tensor buffers back to
/// same-size Tensor allocations on that thread; the outermost scope
/// releases every buffer it still holds when it exits.
///
/// An inference forward frees and re-allocates the same activation shapes
/// op after op. Without a scope each free returns to malloc, which may
/// trim the heap and fault the pages back in on the next op; inside a
/// scope the buffer is parked on a thread-local list keyed by byte size
/// and reused. Retention is bounded by the scope (one
/// `ParallelEnsembleEngine::step_pack`), not by the process: a
/// process-wide pool would keep every thread's high watermark forever.
///
/// Rules:
///  - Scopes nest; only the outermost one on a thread owns the list and
///    releases it, so nested scopes never release twice.
///  - Only frees on the scope's thread are parked. A tensor that escapes
///    the scope and is freed after it, or on another thread, goes back to
///    the heap (or to the freeing thread's own open scope).
class TensorRecycleScope {
 public:
  TensorRecycleScope();
  ~TensorRecycleScope();
  TensorRecycleScope(const TensorRecycleScope&) = delete;
  TensorRecycleScope& operator=(const TensorRecycleScope&) = delete;

  /// Bytes parked on the calling thread's list (0 outside any scope).
  static std::size_t retained_bytes();

 private:
  std::unique_ptr<detail::RecycleBin> bin_;  // set on the outermost scope
};

namespace detail {

void* tensor_buffer_alloc(std::size_t bytes);
void tensor_buffer_free(void* p, std::size_t bytes) noexcept;

/// Tensor storage allocator: plain heap memory, routed through the
/// calling thread's TensorRecycleScope when one is open.
template <class T>
struct RecyclingAllocator {
  using value_type = T;
  RecyclingAllocator() = default;
  template <class U>
  RecyclingAllocator(const RecyclingAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(tensor_buffer_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    tensor_buffer_free(p, n * sizeof(T));
  }
  template <class U>
  bool operator==(const RecyclingAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace detail
}  // namespace aeris
