#include "aeris/tensor/tensor.hpp"

#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace aeris {

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) n *= d;
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), value) {}

Tensor::Tensor(Shape shape, const std::vector<float>& data)
    : shape_(std::move(shape)), data_(data.begin(), data.end()) {
  if (static_cast<std::int64_t>(data_.size()) != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: data size " +
                                std::to_string(data_.size()) +
                                " does not match shape " +
                                shape_to_string(shape_));
  }
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return Tensor({static_cast<std::int64_t>(values.size())},
                std::vector<float>(values));
}

std::int64_t Tensor::dim(std::int64_t i) const {
  if (i < 0) i += ndim();
  assert(i >= 0 && i < ndim());
  return shape_[static_cast<std::size_t>(i)];
}

std::int64_t Tensor::offset(std::span<const std::int64_t> idx) const {
  assert(static_cast<std::int64_t>(idx.size()) == ndim());
  std::int64_t off = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    assert(idx[d] >= 0 && idx[d] < shape_[d]);
    off = off * shape_[d] + idx[d];
  }
  return off;
}

float& Tensor::at(std::span<const std::int64_t> idx) {
  return data_[static_cast<std::size_t>(offset(idx))];
}
float Tensor::at(std::span<const std::int64_t> idx) const {
  return data_[static_cast<std::size_t>(offset(idx))];
}

float& Tensor::at2(std::int64_t i, std::int64_t j) {
  assert(ndim() == 2);
  return data_[static_cast<std::size_t>(i * shape_[1] + j)];
}
float Tensor::at2(std::int64_t i, std::int64_t j) const {
  assert(ndim() == 2);
  return data_[static_cast<std::size_t>(i * shape_[1] + j)];
}

float& Tensor::at3(std::int64_t i, std::int64_t j, std::int64_t k) {
  assert(ndim() == 3);
  return data_[static_cast<std::size_t>((i * shape_[1] + j) * shape_[2] + k)];
}
float Tensor::at3(std::int64_t i, std::int64_t j, std::int64_t k) const {
  assert(ndim() == 3);
  return data_[static_cast<std::size_t>((i * shape_[1] + j) * shape_[2] + k)];
}

float& Tensor::at4(std::int64_t i, std::int64_t j, std::int64_t k,
                   std::int64_t l) {
  assert(ndim() == 4);
  return data_[static_cast<std::size_t>(
      ((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l)];
}
float Tensor::at4(std::int64_t i, std::int64_t j, std::int64_t k,
                  std::int64_t l) const {
  assert(ndim() == 4);
  return data_[static_cast<std::size_t>(
      ((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l)];
}

Tensor Tensor::reshaped(Shape shape) const& {
  if (shape_numel(shape) != numel()) {
    throw std::invalid_argument("reshaped: numel mismatch " +
                                shape_to_string(shape_) + " -> " +
                                shape_to_string(shape));
  }
  Tensor out;
  out.shape_ = std::move(shape);
  out.data_ = data_;
  return out;
}

Tensor Tensor::reshaped(Shape shape) && {
  if (shape_numel(shape) != numel()) {
    throw std::invalid_argument("reshaped: numel mismatch " +
                                shape_to_string(shape_) + " -> " +
                                shape_to_string(shape));
  }
  Tensor out;
  out.shape_ = std::move(shape);
  out.data_ = std::move(data_);
  return out;
}

void Tensor::fill(float value) {
  for (float& x : data_) x = value;
}

bool Tensor::allclose(const Tensor& other, float atol) const {
  if (shape_ != other.shape_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (!(std::fabs(data_[i] - other.data_[i]) <= atol)) return false;
  }
  return true;
}

}  // namespace aeris
