// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/core/
//
// Hash-order iteration on the wire path: the order differs across
// standard libraries and insertion histories. Three shapes: a range-for
// over a named container, a range-for whose header spells the unordered
// type, and an explicit begin().
#include <unordered_map>
#include <unordered_set>

int sum() {
  std::unordered_map<int, int> table;
  int s = 0;
  for (const auto& kv : table) s += kv.second;  // lint-expect: unordered-iteration
  for (int k : std::unordered_set<int>{3, 1, 2}) s += k;  // lint-expect: unordered-iteration
  return s;
}

int first_key(const std::unordered_map<int, int>& index) {
  auto it = index.begin();  // lint-expect: unordered-iteration
  return it->first;
}
