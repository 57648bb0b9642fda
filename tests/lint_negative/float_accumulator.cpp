// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/fl/
//
// A reduction running at float precision; it must accumulate in double.
#include <vector>

double mean(const std::vector<float>& values) {
  float sum = 0.0f;  // lint-expect: float-accumulator
  for (float v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / values.size();
}
