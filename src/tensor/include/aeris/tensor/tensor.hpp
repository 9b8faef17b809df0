#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "aeris/tensor/recycle.hpp"

namespace aeris {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (product of extents).
std::int64_t shape_numel(const Shape& shape);

/// Human-readable form, e.g. "[2, 3, 4]".
std::string shape_to_string(const Shape& shape);

/// Dense, contiguous, row-major FP32 tensor.
///
/// This is deliberately a *value type*: copying copies the buffer, moving
/// is cheap. Views are provided as explicit copy-out/copy-in slicing
/// operations (see ops.hpp) rather than aliasing strides — the training
/// and parallelism code paths in this repo always materialize the shards
/// they exchange, mirroring how the paper's runtime packs messages for
/// alltoall/send-recv.
///
/// Storage comes from the heap; while a TensorRecycleScope is open on a
/// thread, buffers freed there are handed back to that thread's same-size
/// allocations (see recycle.hpp).
class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Allocates and fills with `value`.
  Tensor(Shape shape, float value);

  /// Copies data (must have shape_numel(shape) elements).
  Tensor(Shape shape, const std::vector<float>& data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value) {
    return Tensor(std::move(shape), value);
  }
  /// 1-D tensor from an explicit list of values.
  static Tensor from(std::initializer_list<float> values);

  const Shape& shape() const { return shape_; }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  std::int64_t dim(std::int64_t i) const;
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return std::span<float>(data_); }
  std::span<const float> flat() const { return std::span<const float>(data_); }

  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  /// Multi-dimensional access; bounds are checked only in debug builds.
  float& at(std::span<const std::int64_t> idx);
  float at(std::span<const std::int64_t> idx) const;
  float& at2(std::int64_t i, std::int64_t j);
  float at2(std::int64_t i, std::int64_t j) const;
  float& at3(std::int64_t i, std::int64_t j, std::int64_t k);
  float at3(std::int64_t i, std::int64_t j, std::int64_t k) const;
  float& at4(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l);
  float at4(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) const;

  /// Reinterprets the buffer with a new shape of equal numel.
  Tensor reshaped(Shape shape) const&;
  Tensor reshaped(Shape shape) &&;

  /// Row-major linear offset of a multi-index.
  std::int64_t offset(std::span<const std::int64_t> idx) const;

  void fill(float value);

  /// True if shapes match and elements match to `atol`.
  bool allclose(const Tensor& other, float atol = 1e-5f) const;

 private:
  Shape shape_;
  std::vector<float, detail::RecyclingAllocator<float>> data_;
};

}  // namespace aeris
