#include "aeris/swipe/zero1.hpp"

#include <algorithm>
#include <stdexcept>

#include "aeris/swipe/checkpoint.hpp"

namespace aeris::swipe {

Zero1Optimizer::Zero1Optimizer(nn::ParamList params, nn::AdamW::Options opts)
    : params_(std::move(params)), opt_(params_, opts) {
  param_offset_.reserve(params_.size());
  for (const nn::Param* p : params_) {
    param_offset_.push_back(total_elems_);
    total_elems_ += static_cast<std::size_t>(p->numel());
  }
  flat_grads_.resize(total_elems_);
  flat_values_.resize(total_elems_);
}

std::pair<std::size_t, std::size_t> Zero1Optimizer::shard_range(
    std::size_t num_params, int group_size, int group_rank) {
  if (group_size <= 0 || group_rank < 0 || group_rank >= group_size) {
    throw std::invalid_argument("shard_range: bad group");
  }
  const std::size_t g = static_cast<std::size_t>(group_size);
  const std::size_t r = static_cast<std::size_t>(group_rank);
  return {num_params * r / g, num_params * (r + 1) / g};
}

void Zero1Optimizer::ensure_shard_counts(const Communicator& group) {
  // Counts depend only on the group size (params are fixed), so the cached
  // vector stays valid across steps of the same group.
  if (shard_counts_.size() == static_cast<std::size_t>(group.size())) return;
  shard_counts_.assign(static_cast<std::size_t>(group.size()), 0);
  for (int r = 0; r < group.size(); ++r) {
    const auto [b, e] = shard_range(params_.size(), group.size(), r);
    std::int64_t count = 0;
    for (std::size_t i = b; i < e; ++i) count += params_[i]->numel();
    shard_counts_[static_cast<std::size_t>(r)] = count;
  }
}

std::size_t Zero1Optimizer::shard_elem_base(int group_size, int section) const {
  const std::size_t b = shard_range(params_.size(), group_size, section).first;
  return b < params_.size() ? param_offset_[b] : total_elems_;
}

template <typename Fn>
void Zero1Optimizer::visit_slice(std::size_t g0, std::size_t len,
                                 Fn&& fn) const {
  // Shards are contiguous parameter ranges in flat order, so a slice is a
  // run of whole-or-partial parameter spans starting at the param that
  // contains g0.
  auto it = std::upper_bound(param_offset_.begin(), param_offset_.end(), g0);
  std::size_t i = static_cast<std::size_t>(it - param_offset_.begin()) - 1;
  std::size_t done = 0;
  while (done < len) {
    const std::size_t first =
        g0 + done - param_offset_[i];  // start element within param i
    const std::size_t take =
        std::min(len - done,
                 static_cast<std::size_t>(params_[i]->numel()) - first);
    fn(i, first, done, take);
    done += take;
    ++i;
  }
}

void Zero1Optimizer::reduce_grads(Communicator& group, float grad_scale) {
  // Gradient synchronization: reduce-scatter-sum over the shard
  // boundaries, then scale. (The paper's "gradient reductions ...
  // maintained in FP32".) Only this rank's shard sum is materialized —
  // the other shards' sums are consumed by their owners alone, so the
  // allgather half of a full allreduce (and the write-back of gradients
  // the sharded update never reads) is skipped entirely. The segmented
  // load feeds the ring straight from the per-parameter gradient tensors;
  // the persistent flat buffer only ever holds my shard.
  ensure_shard_counts(group);
  const auto [begin, end] =
      shard_range(params_.size(), group.size(), group.rank());
  const std::size_t my_base = shard_elem_base(group.size(), group.rank());
  const auto load = [&](int section, std::size_t off, std::span<float> part,
                        bool accumulate) {
    const std::size_t base = shard_elem_base(group.size(), section);
    visit_slice(base + off, part.size(),
                [&](std::size_t i, std::size_t first, std::size_t at,
                    std::size_t take) {
                  const float* g = params_[i]->grad.flat().data() + first;
                  float* d = part.data() + at;
                  if (accumulate) {
                    for (std::size_t k = 0; k < take; ++k) d[k] += g[k];
                  } else {
                    std::copy(g, g + take, d);
                  }
                });
  };
  group.reduce_scatterv(
      shard_counts_,
      std::span<float>(flat_grads_.data() + my_base,
                       static_cast<std::size_t>(
                           shard_counts_[static_cast<std::size_t>(
                               group.rank())])),
      load);
  for (std::size_t i = begin; i < end; ++i) {
    nn::Param* p = params_[i];
    const std::size_t off = param_offset_[i];
    for (std::int64_t j = 0; j < p->numel(); ++j) {
      p->grad[j] = flat_grads_[off + static_cast<std::size_t>(j)] * grad_scale;
    }
  }
}

void Zero1Optimizer::update_and_allgather(Communicator& group, float lr) {
  // Each rank owns a contiguous shard of the parameter list and holds
  // optimizer state only for it (state for other shards is never
  // touched — ZeRO-1 memory behaviour).
  const auto [begin, end] =
      shard_range(params_.size(), group.size(), group.rank());
  opt_.step_shard(lr, begin, end);
  if (group.size() == 1) return;

  // Redistribute updated values with one allgather-v over the shard
  // boundaries: each owner contributes its updated slice (packed once into
  // the persistent staging buffer, then fanned out by reference), and
  // remote slices are scattered straight into the parameter tensors as
  // they arrive — no flat round trip on the receive side.
  ensure_shard_counts(group);
  const std::size_t my_base = shard_elem_base(group.size(), group.rank());
  for (std::size_t i = begin; i < end; ++i) {
    const nn::Param* p = params_[i];
    std::copy(p->value.flat().begin(), p->value.flat().end(),
              flat_values_.begin() +
                  static_cast<std::ptrdiff_t>(param_offset_[i]));
  }
  group.allgatherv(
      std::span<const float>(
          flat_values_.data() + my_base,
          static_cast<std::size_t>(
              shard_counts_[static_cast<std::size_t>(group.rank())])),
      shard_counts_,
      [&](int src, std::size_t off, std::span<const float> part) {
        const std::size_t base = shard_elem_base(group.size(), src);
        visit_slice(base + off, part.size(),
                    [&](std::size_t i, std::size_t first, std::size_t at,
                        std::size_t take) {
                      std::copy(part.data() + at, part.data() + at + take,
                                params_[i]->value.flat().data() + first);
                    });
      });
}

void Zero1Optimizer::checkpoint_shard(int group_size, int group_rank,
                                      Serializer& out) const {
  const auto [begin, end] = shard_range(params_.size(), group_size, group_rank);
  out.write_i64(opt_.steps_taken());
  out.write_u64(begin);
  out.write_u64(end);
  for (std::size_t i = begin; i < end; ++i) {
    out.write_floats(opt_.moment1(i).flat());
    out.write_floats(opt_.moment2(i).flat());
  }
}

void Zero1Optimizer::restore_shard(int group_size, int group_rank,
                                   Deserializer& in) {
  const auto [begin, end] = shard_range(params_.size(), group_size, group_rank);
  opt_.set_steps_taken(in.read_i64());
  if (in.read_u64() != begin || in.read_u64() != end) {
    throw CheckpointError(
        "optimizer shard range mismatch (different group layout?)");
  }
  for (std::size_t i = begin; i < end; ++i) {
    in.read_floats_into(opt_.moment1(i).flat());
    in.read_floats_into(opt_.moment2(i).flat());
  }
}

void Zero1Optimizer::step(Communicator& group, float lr, float grad_scale) {
  reduce_grads(group, grad_scale);
  update_and_allgather(group, lr);
}

void Zero1Optimizer::step_reduced(Communicator& group, float lr) {
  update_and_allgather(group, lr);
}

}  // namespace aeris::swipe
