// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/fl/
//
// The smallest atomic-rejection shape: one member write, nothing else, ahead
// of the validation call. A rejected round leaves the counter advanced.
#include <vector>

namespace fixture {

struct EarlyCounter {
  void synchronize(std::vector<float>& client_params, double weight) {
    committed_ += 1;  // lint-expect: atomic-reject
    require_round_inputs(client_params, weight);
  }

  void require_round_inputs(const std::vector<float>& client_params,
                            double weight);

  int committed_ = 0;
};

}  // namespace fixture
