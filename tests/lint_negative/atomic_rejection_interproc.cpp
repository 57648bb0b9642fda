// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/fl/
//
// The cross-function shape of the same bug: synchronize() itself writes
// nothing, but the helper it calls before the first validation point
// mutates both a member (scale_) and the caller's proposal (through its
// reference parameter). Effect propagation must carry the helper's effects
// up to the call site and reject the ordering.
#include <cstddef>
#include <vector>

namespace fixture {

struct HiddenHelperSync {
  // One call deep: the mutation lives here, not in the entry point.
  void apply_noise(std::vector<float>& out) {
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] *= scale_;
    }
    scale_ += 0.5f;
  }

  void synchronize(std::vector<std::vector<float>>& client_params,
                   const std::vector<double>& weights) {
    for (std::size_t i = 0; i < client_params.size(); ++i) {
      apply_noise(client_params[i]);  // mutation BEFORE validation  // lint-expect: atomic-reject
    }
    require_round_inputs(client_params, weights);  // may throw — too late
  }

  void require_round_inputs(
      const std::vector<std::vector<float>>& client_params,
      const std::vector<double>& weights);

  float scale_ = 1.0f;
};

}  // namespace fixture
