#include "aeris/core/ensemble.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "aeris/core/cursor.hpp"
#include "aeris/tensor/ops.hpp"
#include "aeris/tensor/recycle.hpp"
#include "aeris/tensor/thread_pool.hpp"

namespace aeris::core {
namespace {

/// Assembles the stacked model input [E, H, W, Cin] whose slab e is
/// concat(state_e, prev_e, forcings_e) along channels — the batched image
/// of the serial build_input in forecaster.cpp, with per-member
/// conditioning so slots from unrelated requests can share the stack.
Tensor build_packed_input(const Tensor& states, float state_scale,
                          std::span<const MemberSlot> pack) {
  const std::int64_t e = states.dim(0);
  const std::int64_t h = states.dim(1), w = states.dim(2);
  const std::int64_t v = states.dim(3);
  const std::int64_t f = pack.front().forcings->dim(2);
  const std::int64_t cin = 2 * v + f;
  Tensor input({e, h, w, cin});
  const std::int64_t pixels = h * w;
  for (std::int64_t m = 0; m < e; ++m) {
    const float* ps = states.data() + m * pixels * v;
    const float* pp = pack[static_cast<std::size_t>(m)].prev->data();
    const float* pf = pack[static_cast<std::size_t>(m)].forcings->data();
    float* pi = input.data() + m * pixels * cin;
    for (std::int64_t px = 0; px < pixels; ++px) {
      float* dst = pi + px * cin;
      const float* s = ps + px * v;
      for (std::int64_t c = 0; c < v; ++c) dst[c] = s[c] * state_scale;
      const float* p = pp + px * v;
      for (std::int64_t c = 0; c < v; ++c) dst[v + c] = p[c];
      const float* fo = pf + px * f;
      for (std::int64_t c = 0; c < f; ++c) dst[2 * v + c] = fo[c];
    }
  }
  return input;
}

Tensor member_slab(const Tensor& stacked, std::int64_t m, const Shape& shape) {
  Tensor out(shape);
  std::copy_n(stacked.data() + m * out.numel(), out.numel(), out.data());
  return out;
}

}  // namespace

ParallelEnsembleEngine::ParallelEnsembleEngine(const AerisModel& model,
                                              const TrigFlowConfig& tf,
                                              const TrigSamplerConfig& sampler,
                                              std::uint64_t seed)
    : model_(model),
      param_(Parameterization::kTrigFlow),
      trigflow_(tf),
      trig_sampler_(sampler),
      rng_(seed) {}

ParallelEnsembleEngine::ParallelEnsembleEngine(const AerisModel& model,
                                              const EdmConfig& edm,
                                              const EdmSamplerConfig& sampler,
                                              std::uint64_t seed)
    : model_(model),
      param_(Parameterization::kEdm),
      edm_(edm),
      edm_sampler_(sampler),
      rng_(seed) {}

ParallelEnsembleEngine::ParallelEnsembleEngine(
    const AerisModel& model, const TrigFlowConfig& tf,
    const ConsistencySamplerConfig& sampler, std::uint64_t seed)
    : model_(model),
      param_(Parameterization::kTrigFlow),
      default_kind_(SamplerKind::kConsistency),
      trigflow_(tf),
      cons_sampler_(sampler),
      has_consistency_(true),
      rng_(seed) {}

std::vector<Tensor> ParallelEnsembleEngine::step_pack(
    std::span<const MemberSlot> pack, int solver_steps_override,
    std::optional<SamplerKind> kind) const {
  if (pack.empty()) return {};
  // Every forward of this solve frees and re-allocates the same activation
  // shapes: recycle them on this thread until the solve returns.
  TensorRecycleScope recycle;
  const SamplerKind resolved = kind.value_or(default_kind_);
  if (resolved == SamplerKind::kConsistency && !has_consistency()) {
    throw std::invalid_argument(
        "step_pack: consistency pack on an engine without a consistency "
        "sampler (construct with ConsistencySamplerConfig or attach a "
        "student via set_consistency)");
  }
  const Shape& shape = pack.front().prev->shape();  // [H, W, V]
  for (const MemberSlot& slot : pack) {
    if (slot.prev == nullptr || slot.forcings == nullptr) {
      throw std::invalid_argument("step_pack: null slot tensor");
    }
    if (slot.prev->ndim() != 3 || slot.forcings->ndim() != 3) {
      throw std::invalid_argument("step_pack: slots must be [H,W,*]");
    }
    if (slot.prev->shape() != shape ||
        slot.forcings->dim(0) != shape[0] ||
        slot.forcings->dim(1) != shape[1] ||
        slot.forcings->dim(2) != pack.front().forcings->dim(2)) {
      throw std::invalid_argument("step_pack: slot shape mismatch");
    }
  }
  const std::int64_t e = static_cast<std::int64_t>(pack.size());

  std::vector<MemberKey> keys(pack.size());
  for (std::size_t m = 0; m < pack.size(); ++m) keys[m] = pack[m].noise;

  Tensor residual;
  if (resolved == SamplerKind::kConsistency) {
    // Few-step student path: same conditioning contract as the teacher,
    // different network (the attached student, or the engine's own model
    // when it was constructed as a consistency engine) and a sampler that
    // jumps to x_0 in cons_sampler_.steps evaluations.
    ConsistencySamplerConfig sc = cons_sampler_;
    if (solver_steps_override > 0) sc.steps = solver_steps_override;
    const AerisModel& net = student_ != nullptr ? *student_ : model_;
    const float sd = trigflow_.config().sigma_d;
    DenoiserFn velocity = [&](const Tensor& x, float t) {
      Tensor input = build_packed_input(x, 1.0f / sd, pack);
      Tensor f = net.forward(input, Tensor({e}, t));
      scale_(f, sd);  // velocity = sigma_d * F
      return f;
    };
    residual = sample_consistency_batched(velocity, shape, trigflow_, sc,
                                          std::span<const MemberKey>(keys));
  } else if (param_ == Parameterization::kTrigFlow) {
    TrigSamplerConfig sc = trig_sampler_;
    if (solver_steps_override > 0) sc.steps = solver_steps_override;
    const float sd = trigflow_.config().sigma_d;
    DenoiserFn velocity = [&](const Tensor& x, float t) {
      // x: [E, H, W, V] — slab m is member m's x_t.
      Tensor input = build_packed_input(x, 1.0f / sd, pack);
      Tensor f = model_.forward(input, Tensor({e}, t));
      scale_(f, sd);  // velocity = sigma_d * F
      return f;
    };
    residual = sample_trigflow_batched(velocity, shape, trigflow_, sc,
                                       std::span<const MemberKey>(keys));
  } else {
    EdmSamplerConfig sc = edm_sampler_;
    if (solver_steps_override > 0) sc.steps = solver_steps_override;
    DenoiserFn network = [&](const Tensor& xin, float t) {
      Tensor input = build_packed_input(xin, 1.0f, pack);
      return model_.forward(input, Tensor({e}, t));
    };
    residual = sample_edm_batched(network, shape, edm_, sc,
                                  std::span<const MemberKey>(keys));
  }

  std::vector<Tensor> next;
  next.reserve(pack.size());
  for (std::int64_t m = 0; m < e; ++m) {
    next.push_back(add(*pack[static_cast<std::size_t>(m)].prev,
                       member_slab(residual, m, shape)));
  }
  return next;
}

std::vector<Tensor> ParallelEnsembleEngine::step_chunk(
    const std::vector<Tensor>& states, const Tensor& forcings, std::int64_t m0,
    std::int64_t step) const {
  // The per-member key matches DiffusionForecaster::forecast_step, so the
  // stacked solve consumes exactly the serial noise streams.
  std::vector<MemberSlot> slots(states.size());
  for (std::size_t m = 0; m < states.size(); ++m) {
    slots[m].prev = &states[m];
    slots[m].forcings = &forcings;
    slots[m].noise =
        MemberCursor{rng_.seed(), m0 + static_cast<std::int64_t>(m), step}
            .noise_key();
  }
  return step_pack(slots);
}

std::vector<std::vector<Tensor>> ParallelEnsembleEngine::ensemble_rollout(
    const Tensor& init, const ForcingFn& forcings_at, std::int64_t n_steps,
    std::int64_t members, const EnsembleOptions& opts) const {
  if (init.ndim() != 3) {
    throw std::invalid_argument("ensemble_rollout: init must be [H,W,V]");
  }
  if (members <= 0) return {};
  const std::int64_t batch = std::max<std::int64_t>(1, opts.batch);

  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;  // [m0, m1)
  for (std::int64_t m = 0; m < members; m += batch) {
    chunks.emplace_back(m, std::min(m + batch, members));
  }

  std::vector<std::vector<Tensor>> out(static_cast<std::size_t>(members));

  auto run_chunk = [&](std::int64_t m0, std::int64_t m1) {
    const std::int64_t e = m1 - m0;
    std::vector<Tensor> states(static_cast<std::size_t>(e), init);
    for (std::int64_t s = 0; s < n_steps; ++s) {
      states = step_chunk(states, forcings_at(s), m0, s);
      for (std::int64_t m = 0; m < e; ++m) {
        out[static_cast<std::size_t>(m0 + m)].push_back(
            states[static_cast<std::size_t>(m)]);
      }
    }
  };

  const int threads =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(std::max(1, opts.threads)), chunks.size()));
  if (threads <= 1) {
    // Single driver: kernels keep using the shared pool internally.
    for (const auto& [m0, m1] : chunks) run_chunk(m0, m1);
    return out;
  }

  // Multi-driver mode: each worker claims whole chunks and runs its
  // kernels inline (SerialRegionGuard) — the shared ThreadPool holds a
  // single job descriptor, so concurrent parallel_for dispatch from two
  // drivers is not allowed, and inline execution is bitwise-identical
  // anyway because every kernel splits only independent output rows.
  std::atomic<std::size_t> next_chunk{0};
  std::exception_ptr first_error;
  std::mutex err_mutex;
  auto worker = [&] {
    SerialRegionGuard serial;
    for (;;) {
      const std::size_t i =
          next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (i >= chunks.size()) return;
      try {
        run_chunk(chunks[i].first, chunks[i].second);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
#if defined(__GLIBC__)
  // Each exited driver leaves its heap arena behind, and glibc hands an
  // arena's free pages back only when its top chunk crosses a trim
  // threshold that moves with past allocations. Whether a driver's
  // megabytes of activations stay resident after the call would then
  // hinge on where its last buffers landed; return them now, so every
  // call leaves the same footprint.
  malloc_trim(0);
#endif
  if (first_error) std::rethrow_exception(first_error);
  return out;
}

}  // namespace aeris::core
