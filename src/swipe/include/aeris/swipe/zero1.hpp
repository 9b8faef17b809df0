#pragma once

#include "aeris/nn/optimizer.hpp"
#include "aeris/swipe/comm.hpp"

namespace aeris::swipe {

class Serializer;
class Deserializer;

/// ZeRO-1-like distributed optimizer (paper §VI-C: "a Zero1-like
/// distributed optimizer ... designed using custom-built modules").
///
/// Optimizer state (AdamW moments) for a stage's parameters is sharded
/// across the stage's replica group: gradients are reduce-scattered over
/// the shard boundaries (each rank receives the summed gradients only for
/// its own contiguous parameter-range shard — the other shards' sums are
/// consumed nowhere, so they are never materialized), each rank applies
/// the AdamW update to its shard, and updated values are redistributed
/// with a single allgather-v over the same boundaries (one collective per
/// step; shard owners contribute their updated slice, and remote slices
/// are scattered straight into the parameter tensors as they arrive).
/// State memory per rank drops by the group size — the ZeRO-1 claim.
///
/// The flat gradient and parameter-value staging buffers are persistent
/// members, so a steady-state step performs no heap allocation.
class Zero1Optimizer {
 public:
  Zero1Optimizer(nn::ParamList params, nn::AdamW::Options opts = {});

  /// Collective over `group`: allreduce-average gradients with
  /// `grad_scale` (e.g. 1 / (DP * microbatches)), update my shard, then
  /// allgather-v parameter values. Every group member must call this.
  void step(Communicator& group, float lr, float grad_scale);

  /// Overlapped-path step: gradients were already summed across the group
  /// (e.g. by bucketed allreduce during backward) and scaled into
  /// `Param::grad`; only the sharded update + allgather-v remain.
  void step_reduced(Communicator& group, float lr);

  /// This rank's parameter shard [begin, end) for a group of `size`.
  static std::pair<std::size_t, std::size_t> shard_range(
      std::size_t num_params, int group_size, int group_rank);

  nn::AdamW& inner() { return opt_; }

  /// Serializes this rank's optimizer shard: the AdamW step clock plus the
  /// first/second moments of parameters in shard (group_size, group_rank).
  /// Only the shard is saved — non-shard moments are never updated under
  /// the sharded step, so per-rank shards together cover all live state.
  void checkpoint_shard(int group_size, int group_rank,
                        Serializer& out) const;
  /// Restores state written by checkpoint_shard for the same shard layout;
  /// throws CheckpointError on any mismatch.
  void restore_shard(int group_size, int group_rank, Deserializer& in);

 private:
  /// Reduce-scatter-sum grads over the shard boundaries and write my
  /// shard's summed gradients back scaled (only my shard's gradients are
  /// consumed by the sharded update).
  void reduce_grads(Communicator& group, float grad_scale);
  /// Sharded AdamW update + single allgather-v of parameter values.
  void update_and_allgather(Communicator& group, float lr);
  /// (Re)computes shard_counts_ for this group size.
  void ensure_shard_counts(const Communicator& group);
  /// First flat element of shard `section` of the group.
  std::size_t shard_elem_base(int group_size, int section) const;
  /// Walks the parameter slices covering flat elements
  /// [g0, g0 + len): fn(param index, first element within the param,
  /// offset within the slice, element count).
  template <typename Fn>
  void visit_slice(std::size_t g0, std::size_t len, Fn&& fn) const;

  nn::ParamList params_;
  nn::AdamW opt_;
  std::vector<std::size_t> param_offset_;  ///< flat offset of each param
  std::size_t total_elems_ = 0;
  std::vector<float> flat_grads_;   ///< persistent gradient staging buffer
  std::vector<float> flat_values_;  ///< persistent allgather-v buffer
  std::vector<std::int64_t> shard_counts_;  ///< per-rank value counts
};

}  // namespace aeris::swipe
