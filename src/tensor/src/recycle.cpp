#include "aeris/tensor/recycle.hpp"

#include <new>
#include <unordered_map>
#include <vector>

namespace aeris {
namespace detail {

struct RecycleBin {
  std::unordered_map<std::size_t, std::vector<void*>> free;  // by bytes
  std::size_t bytes = 0;
};

namespace {

// The open outermost scope's list. A plain pointer (trivially destructible)
// so frees during thread teardown never touch a destroyed thread_local.
thread_local RecycleBin* t_bin = nullptr;

}  // namespace

void* tensor_buffer_alloc(std::size_t bytes) {
  if (t_bin != nullptr) {
    auto it = t_bin->free.find(bytes);
    if (it != t_bin->free.end() && !it->second.empty()) {
      void* p = it->second.back();
      it->second.pop_back();
      t_bin->bytes -= bytes;
      return p;
    }
  }
  return ::operator new(bytes);
}

void tensor_buffer_free(void* p, std::size_t bytes) noexcept {
  if (t_bin != nullptr) {
    try {
      t_bin->free[bytes].push_back(p);
      t_bin->bytes += bytes;
      return;
    } catch (const std::bad_alloc&) {
      // No room to park it: fall through and free it now.
    }
  }
  ::operator delete(p);
}

}  // namespace detail

TensorRecycleScope::TensorRecycleScope() {
  if (detail::t_bin == nullptr) {
    bin_ = std::make_unique<detail::RecycleBin>();
    detail::t_bin = bin_.get();
  }
}

TensorRecycleScope::~TensorRecycleScope() {
  if (!bin_) return;
  detail::t_bin = nullptr;
  for (auto& [bytes, list] : bin_->free) {
    for (void* p : list) ::operator delete(p);
  }
}

std::size_t TensorRecycleScope::retained_bytes() {
  return detail::t_bin != nullptr ? detail::t_bin->bytes : 0;
}

}  // namespace aeris
