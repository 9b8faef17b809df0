#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace aeris::nn {

/// Stable identity of a layer *instance*, preserved across copies and
/// moves.
///
/// FwdCtx slots are keyed by LayerId rather than `this`: the SWiPe engine
/// clones its stage into a per-microbatch Flight record and then moves the
/// whole Flight into a deque, so member addresses change between forward
/// and backward while the identity (and the activation slots recorded under
/// it) must not. Two live copies of the same layer share an id — that is
/// fine, and intended, because every concurrent execution owns its own
/// FwdCtx; ids only need to be unique *within* one ctx, which holds for any
/// model whose layers are distinct instances.
class LayerId {
 public:
  LayerId() : v_(counter_.fetch_add(1, std::memory_order_relaxed)) {}
  LayerId(const LayerId&) = default;
  LayerId& operator=(const LayerId&) = default;

  std::uint64_t value() const { return v_; }

 private:
  static inline std::atomic<std::uint64_t> counter_{1};
  std::uint64_t v_;
};

/// Per-call activation context: the only place forward passes may retain
/// state for backward.
///
/// Layers are const with respect to their weights during forward; anything
/// backward needs (inputs, softmax probabilities, inverse RMS factors) is
/// written into the FwdCtx the caller threads through the pass. This makes
/// a shared model reentrant: N threads running inference or training
/// concurrently each hold their own ctx and never touch layer members.
///
/// Ownership and lifetime:
///  - `kTraining`: layers deposit owned tensors into typed slots; the ctx
///    must stay alive (and unmoved only in the sense of object identity —
///    moving the ctx itself is fine) until the matching backward consumes
///    them. Slots persist after backward, so backward may be replayed, and
///    a second forward on the same ctx overwrites them.
///  - `kInference`: nothing is retained. Kernel temporaries live in the
///    thread-local ScratchArena exactly as before; the ctx is a mode tag
///    and stays empty, so a stack-local ctx per call costs nothing.
class FwdCtx {
 public:
  enum class Mode { kTraining, kInference };

  explicit FwdCtx(Mode mode = Mode::kTraining) : mode_(mode) {}

  FwdCtx(FwdCtx&&) = default;
  FwdCtx& operator=(FwdCtx&&) = default;
  FwdCtx(const FwdCtx&) = delete;
  FwdCtx& operator=(const FwdCtx&) = delete;

  bool training() const { return mode_ == Mode::kTraining; }
  bool inference() const { return mode_ == Mode::kInference; }
  Mode mode() const { return mode_; }

  /// The slot for `id`, default-constructing a T on first use. The caller
  /// (always the owning layer) fixes T per id, so the static_cast is safe
  /// by construction; a dynamic_cast guards against id collisions in
  /// debug-quality code paths.
  template <typename T>
  T& slot(const LayerId& id) {
    std::unique_ptr<HolderBase>& p = slots_[id.value()];
    if (!p) p = std::make_unique<Holder<T>>();
    return static_cast<Holder<T>&>(*p).value;
  }

  /// The slot for `id` if the layer has deposited one (and the type
  /// matches), else nullptr. Backward uses this to detect
  /// backward-before-forward.
  template <typename T>
  T* find(const LayerId& id) {
    auto it = slots_.find(id.value());
    if (it == slots_.end()) return nullptr;
    auto* h = dynamic_cast<Holder<T>*>(it->second.get());
    return h != nullptr ? &h->value : nullptr;
  }

  /// Drops all retained activations (e.g. between gradient-accumulation
  /// microbatches when the caller wants the memory back early).
  void clear() { slots_.clear(); }

  std::size_t slot_count() const { return slots_.size(); }

 private:
  struct HolderBase {
    virtual ~HolderBase() = default;
  };
  template <typename T>
  struct Holder final : HolderBase {
    T value{};
  };

  Mode mode_;
  std::unordered_map<std::uint64_t, std::unique_ptr<HolderBase>> slots_;
};

}  // namespace aeris::nn
