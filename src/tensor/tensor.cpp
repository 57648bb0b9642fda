#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/error.h"

namespace apf {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) oss << 'x';
    oss << shape[i];
  }
  return oss.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.f) {}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)), data_(shape_numel(shape_), value) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  APF_CHECK_MSG(data_.size() == shape_numel(shape_),
                "data size " << data_.size() << " != shape "
                             << shape_str(shape_));
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = rng.uniform_float(lo, hi);
  return t;
}

Tensor Tensor::normal(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

std::size_t Tensor::dim(std::size_t axis) const {
  APF_CHECK_MSG(axis < shape_.size(), "axis " << axis << " out of rank "
                                              << shape_.size());
  return shape_[axis];
}

float& Tensor::at(std::size_t i) {
  APF_CHECK_MSG(i < data_.size(), "index " << i << " >= " << data_.size());
  return data_[i];
}

float Tensor::at(std::size_t i) const {
  APF_CHECK_MSG(i < data_.size(), "index " << i << " >= " << data_.size());
  return data_[i];
}

float& Tensor::at(std::size_t i, std::size_t j) {
  APF_CHECK(rank() == 2);
  APF_CHECK(i < shape_[0] && j < shape_[1]);
  return data_[i * shape_[1] + j];
}

float Tensor::at(std::size_t i, std::size_t j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

float& Tensor::at(std::size_t i, std::size_t j, std::size_t k) {
  APF_CHECK(rank() == 3);
  APF_CHECK(i < shape_[0] && j < shape_[1] && k < shape_[2]);
  return data_[(i * shape_[1] + j) * shape_[2] + k];
}

float Tensor::at(std::size_t i, std::size_t j, std::size_t k) const {
  return const_cast<Tensor*>(this)->at(i, j, k);
}

float& Tensor::at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
  APF_CHECK(rank() == 4);
  APF_CHECK(n < shape_[0] && c < shape_[1] && h < shape_[2] && w < shape_[3]);
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

float Tensor::at(std::size_t n, std::size_t c, std::size_t h,
                 std::size_t w) const {
  return const_cast<Tensor*>(this)->at(n, c, h, w);
}

Tensor Tensor::reshaped(Shape shape) const {
  APF_CHECK_MSG(shape_numel(shape) == data_.size(),
                "reshape " << shape_str(shape_) << " -> " << shape_str(shape));
  return Tensor(std::move(shape), data_);
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::check_same_shape(const Tensor& other) const {
  APF_CHECK_MSG(shape_ == other.shape_, "shape mismatch "
                                            << shape_str(shape_) << " vs "
                                            << shape_str(other.shape_));
}

Tensor& Tensor::operator+=(const Tensor& other) {
  check_same_shape(other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  check_same_shape(other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Tensor& Tensor::operator+=(float s) {
  for (auto& v : data_) v += s;
  return *this;
}

float Tensor::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  return data_.empty() ? 0.f
                       : sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
  APF_CHECK(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  APF_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

Tensor operator+(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out += b;
  return out;
}

Tensor operator-(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out -= b;
  return out;
}

Tensor operator*(const Tensor& a, float s) {
  Tensor out = a;
  out *= s;
  return out;
}

Tensor operator*(float s, const Tensor& a) { return a * s; }

Tensor hadamard(const Tensor& a, std::span<const float> b) {
  APF_CHECK(a.numel() == b.size());
  Tensor out = a;
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] *= b[i];
  return out;
}

}  // namespace apf
