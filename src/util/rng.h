// Deterministic pseudo-random number generation.
//
// All stochasticity in the library flows through `apf::Rng`, an
// xoshiro256** generator seeded via splitmix64. Simulations are
// bit-deterministic given a seed, which the tests rely on. The generator is
// deliberately not std::mt19937: xoshiro is faster, has a tiny state, and the
// output stream is stable across standard-library implementations.
#pragma once

#include <cstdint>
#include <vector>

namespace apf {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// Deterministic RNG (xoshiro256**) with convenience distributions.
///
/// Distribution helpers (normal_, dirichlet, ...) are implemented on top of
/// the raw 64-bit stream with fixed algorithms, so sequences are reproducible
/// across platforms and toolchains.
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform float in [lo, hi).
  float uniform_float(float lo, float hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached second sample).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p);

  /// Gamma(shape, 1) via Marsaglia–Tsang; used by dirichlet().
  double gamma(double shape);

  /// Dirichlet(alpha, ..., alpha) sample of dimension k (sums to 1).
  std::vector<double> dirichlet(double alpha, std::size_t k);

  /// Dirichlet with per-component concentrations.
  std::vector<double> dirichlet(const std::vector<double>& alphas);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const std::size_t j = uniform_int(static_cast<std::uint64_t>(i) + 1);
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// Derives an independent child generator; changing the child does not
  /// perturb this generator's stream beyond the one next_u64() consumed.
  Rng split();

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace apf
