// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/fl/
//
// The quantized-wrapper bug shape: the strategy mutates its own RNG state
// and the caller's proposed parameters BEFORE delegating to the inner
// strategy, whose require_round_inputs() may throw. A rejected round must
// leave both the strategy and the caller's buffers untouched; here a
// rejection leaves half the quantization applied.
#include <cstddef>
#include <vector>

namespace fixture {

struct InnerStrategy {
  void synchronize(std::vector<std::vector<float>>& client_params,
                   const std::vector<double>& weights);
};

class QuantizingWrapper {
 public:
  void synchronize(std::vector<std::vector<float>>& client_params,
                   const std::vector<double>& weights) {
    // BUG: member write before any validation ran.
    rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;  // lint-expect: atomic-reject
    for (auto& params : client_params) {
      // BUG: caller proposal mutated before the inner strategy validates.
      params.assign(params.size(), 0.0f);  // lint-expect: atomic-reject
    }
    inner_->synchronize(client_params, weights);
  }

 private:
  InnerStrategy* inner_ = nullptr;
  unsigned long long rng_state_ = 0x9E3779B97F4A7C15ULL;
};

}  // namespace fixture
