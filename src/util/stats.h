// Small statistics helpers used by the experiment harness and by APF's
// stability bookkeeping: running mean/variance (Welford) and percentile
// extraction (Fig. 3's 5th/95th error bars).
#pragma once

#include <cstddef>
#include <vector>

namespace apf {

/// Welford running mean / variance accumulator.
class RunningStat {
 public:
  void add(double x);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// p-th percentile (p in [0,100]) by linear interpolation; copies & sorts.
double percentile(std::vector<double> values, double p);

/// Arithmetic mean; 0 for an empty vector.
double mean_of(const std::vector<double>& values);

/// Best-ever (cummax) transform of a metric series, as the paper plots
/// "best-ever accuracy" instead of the noisy instantaneous one (§3.1 fn 2).
std::vector<double> best_ever(const std::vector<double>& series);

}  // namespace apf
