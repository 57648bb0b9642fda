// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/util/
//
// A fold hook whose nondeterminism hides one call deep: fold_push() looks
// innocent, but the weighting helper it calls iterates an unordered_map —
// bucket order depends on the hash seed and insertion history, so the fold
// result is not bit-identical across runs. The effect propagation must
// carry the hash-order effect from the helper into the fold root.
#include <cstddef>
#include <unordered_map>

namespace fixture {

struct LateBoundAggregator {
  double stake_weight(double value) {
    double total = 0.0;
    for (const auto& entry : stakes_) {  // hash-order iteration
      total += entry.second * value;  // lint-expect: fold-determinism
    }
    return total;
  }

  void fold_push(int client, double value) {  // lint-expect: fold-determinism
    APF_CHECK(value >= 0.0);
    (void)client;
    accumulated_ += stake_weight(value);  // reaches hash order
  }

  std::unordered_map<int, double> stakes_;
  double accumulated_ = 0.0;
};

}  // namespace fixture
