#pragma once

#include <string>
#include <vector>

#include "aeris/tensor/rng.hpp"
#include "aeris/tensor/tensor.hpp"

namespace aeris::nn {

/// A learnable parameter: FP32 master value plus FP32 gradient accumulator
/// (the paper keeps parameters, primary gradients and reductions in FP32
/// and feeds BF16 to GEMM/attention; here all compute is FP32 — see
/// DESIGN.md "Mixed precision policy").
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param() = default;
  Param(std::string n, Shape shape)
      : name(std::move(n)), value(shape), grad(std::move(shape)) {}

  std::int64_t numel() const { return value.numel(); }
  void zero_grad() { grad.fill(0.0f); }
};

/// Non-owning list of parameters, in a stable registration order. The
/// order is the contract for optimizer state, EMA, serialization and the
/// ZeRO-1 shard boundaries, so modules must register deterministically.
using ParamList = std::vector<Param*>;

/// Read-only view used by const entry points (a const model hands out
/// parameters that cannot be mutated, so concurrent inference over a
/// shared model is safe by type).
using ConstParamList = std::vector<const Param*>;

/// Total element count across a parameter list.
std::int64_t param_count(const ParamList& params);
std::int64_t param_count(const ConstParamList& params);

/// Zeroes every gradient.
void zero_grads(const ParamList& params);

/// Global L2 norm over all gradients (for monitoring / clipping).
float grad_norm(const ParamList& params);

/// Clips gradients to max_norm in-place; returns the pre-clip norm.
float clip_grad_norm(const ParamList& params, float max_norm);

/// Truncated-normal-free init: fills with N(0, std^2) using the
/// counter-based RNG keyed by the parameter's registration index so
/// initialization is independent of construction order races.
void init_normal(Param& p, const Philox& rng, std::uint64_t index, float std);

/// Flattens all parameter values into a single vector (for checkpoints
/// and for the SWiPe equivalence tests that compare whole model states).
std::vector<float> flatten_values(const ParamList& params);
void unflatten_values(const ParamList& params, std::span<const float> flat);
std::vector<float> flatten_grads(const ParamList& params);

}  // namespace aeris::nn
