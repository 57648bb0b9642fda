// Dense float32 tensor.
//
// The substrate under the neural-network layers: a contiguous, row-major,
// reference-free value type. Everything APF needs reduces to flat float
// vectors, so the tensor stays deliberately simple — no views, no strides, no
// broadcasting beyond what the layers use. Copy is deep; move is cheap.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/debug.h"
#include "util/rng.h"

namespace apf {

using Shape = std::vector<std::size_t>;

/// Number of elements implied by a shape (1 for a rank-0 shape).
std::size_t shape_numel(const Shape& shape);

/// "2x3x4"-style rendering for diagnostics.
std::string shape_str(const Shape& shape);

class Tensor {
 public:
  /// Empty (rank-0, zero elements is represented as shape {0}).
  Tensor() = default;

  /// Zero-filled tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Constant-filled tensor.
  Tensor(Shape shape, float value);

  /// Adopts `data`; data.size() must equal shape_numel(shape).
  Tensor(Shape shape, std::vector<float> data);

  static Tensor full(Shape shape, float value) {
    return Tensor(std::move(shape), value);
  }
  /// i.i.d. U[lo, hi) entries.
  static Tensor uniform(Shape shape, Rng& rng, float lo = -1.f, float hi = 1.f);
  /// i.i.d. N(mean, stddev^2) entries.
  static Tensor normal(Shape shape, Rng& rng, float mean = 0.f,
                       float stddev = 1.f);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  std::size_t dim(std::size_t axis) const;

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  float& operator[](std::size_t i) {
    APF_DEBUG_ASSERT_MSG(i < data_.size(),
                         "tensor index " << i << " >= " << data_.size());
    return data_[i];
  }
  float operator[](std::size_t i) const {
    APF_DEBUG_ASSERT_MSG(i < data_.size(),
                         "tensor index " << i << " >= " << data_.size());
    return data_[i];
  }

  /// Bounds-checked flat access.
  float& at(std::size_t i);
  float at(std::size_t i) const;

  /// Multi-dimensional accessors for the common ranks.
  float& at(std::size_t i, std::size_t j);
  float at(std::size_t i, std::size_t j) const;
  float& at(std::size_t i, std::size_t j, std::size_t k);
  float at(std::size_t i, std::size_t j, std::size_t k) const;
  float& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  float at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

  /// Same data, new shape; numel must match.
  Tensor reshaped(Shape shape) const;

  void fill(float value);
  void zero() { fill(0.f); }

  /// In-place elementwise arithmetic (shapes must match for tensor forms).
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float s);
  Tensor& operator+=(float s);

  /// Reductions over all elements.
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// L2 norm of the flattened tensor.
  float norm() const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  void check_same_shape(const Tensor& other) const;

  Shape shape_{0};
  std::vector<float> data_;
};

/// Out-of-place arithmetic.
Tensor operator+(const Tensor& a, const Tensor& b);
Tensor operator-(const Tensor& a, const Tensor& b);
Tensor operator*(const Tensor& a, float s);
Tensor operator*(float s, const Tensor& a);

/// Elementwise (Hadamard) product with `b`, which holds a.numel() floats
/// (the masks the layers keep for backward).
Tensor hadamard(const Tensor& a, std::span<const float> b);

}  // namespace apf
