// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/transport/
//
// Two nondeterministic float folds the rule must catch:
//   1. accumulating in hash order (range-for over an unordered_map),
//   2. accumulating shared state from thread-pool lanes (lane scheduling
//      order decides the floating-point association).
// Both break the repo's bit-identical-byte/checksum guarantees; the correct
// shapes are StreamingAggregator, or per-slot commit followed by an
// ordered reduction (see fl/runner.cpp).
#include <cstddef>
#include <functional>
#include <unordered_map>
#include <vector>

namespace fixture {

struct FakePool {
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);
};

double hash_order_loss(const std::unordered_map<int, double>& loss_by_id) {
  double total = 0.0;
  for (const auto& kv : loss_by_id) {
    total += kv.second;  // fold order = hash order  // lint-expect: fold-determinism
  }
  return total;
}

double lane_order_loss(FakePool& pool, const std::vector<double>& losses) {
  double total = 0.0;
  pool.parallel_for(losses.size(), [&](std::size_t i) {
    total += losses[i];  // fold order = lane scheduling order (and racy)  // lint-expect: fold-determinism
  });
  return total;
}

}  // namespace fixture
