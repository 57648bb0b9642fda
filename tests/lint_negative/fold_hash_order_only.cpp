// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/transport/
//
// The hash-order fold alone: a float sum over an unordered_map, whose
// association order follows the bucket order.
#include <unordered_map>

namespace fixture {

double hash_order_sum(const std::unordered_map<int, double>& by_id) {
  double total = 0.0;
  for (const auto& kv : by_id) {
    total += kv.second;  // lint-expect: fold-determinism
  }
  return total;
}

}  // namespace fixture
