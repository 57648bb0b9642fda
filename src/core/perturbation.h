// Effective perturbation — the paper's parameter-stability metric (§3.2).
//
// For a scalar parameter with recent updates u_i, effective perturbation is
//   P = |sum u_i| / sum |u_i|  in [0, 1]:
// 1 when updates all move one direction, 0 when consecutive updates cancel
// (pure oscillation around an optimum). Two implementations:
//
//  * WindowedPerturbation — the exact sliding-window definition (Eq. 1),
//    used by the motivating analyses (Figs. 2, 3, 7).
//  * EmaPerturbation — the memory-efficient exponential-moving-average form
//    the deployed APF_Manager uses (Eq. 17): E tracks signed updates, A
//    tracks absolute updates, P = |E| / A.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/bitmap.h"

namespace apf::core {

class WindowedPerturbation {
 public:
  /// Tracks `dim` scalars over a sliding window of `window` updates.
  WindowedPerturbation(std::size_t dim, std::size_t window);

  /// Appends one update vector (size dim).
  void push(std::span<const float> update);

  /// P for scalar j over the current window contents; 0 when the scalar has
  /// seen no mass (a parameter that never moves is maximally stable).
  double value(std::size_t j) const;

  /// All P values.
  std::vector<double> values() const;

  /// Mean P across scalars (the Fig. 2 curve).
  double mean() const;

  std::size_t dim() const { return dim_; }
  bool window_full() const { return count_ >= window_; }

 private:
  std::size_t dim_;
  std::size_t window_;
  std::size_t count_ = 0;
  std::size_t head_ = 0;
  std::vector<float> ring_;      // window * dim, oldest at head_
  std::vector<double> sum_;      // signed sums over the window
  std::vector<double> sum_abs_;  // absolute sums over the window
};

class EmaPerturbation {
 public:
  /// alpha close to 1 weighs history heavily (the paper uses 0.99).
  EmaPerturbation(std::size_t dim, double alpha);

  /// Folds the accumulated update `delta` into E and A for every scalar
  /// whose bit in `skip` is clear (frozen scalars retain their statistics
  /// untouched). `skip` may be null to update everything.
  void update(std::span<const float> delta, const Bitmap* skip = nullptr);

  /// P_j = |E_j| / A_j; 0 when A_j ~ 0 (a scalar that never moves counts as
  /// stable).
  double value(std::size_t j) const;

  std::size_t dim() const { return dim_; }
  double alpha() const { return alpha_; }

  /// Raw statistics (serialization support).
  std::span<const float> raw_signed() const { return e_; }
  std::span<const float> raw_abs() const { return a_; }
  void restore(std::span<const float> e, std::span<const float> a);

 private:
  std::size_t dim_;
  double alpha_;
  std::vector<float> e_;
  std::vector<float> a_;
};

}  // namespace apf::core
