#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace apf {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::reset() { *this = RunningStat{}; }

double RunningStat::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> values, double p) {
  APF_CHECK(!values.empty());
  APF_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> best_ever(const std::vector<double>& series) {
  std::vector<double> out(series.size());
  double best = -1e300;
  for (std::size_t i = 0; i < series.size(); ++i) {
    best = std::max(best, series[i]);
    out[i] = best;
  }
  return out;
}

}  // namespace apf
