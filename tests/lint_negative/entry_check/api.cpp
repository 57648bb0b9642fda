// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/fl/
//
// A public free function declared in src/fl (api.h) whose definition never
// validates its arguments: a size mismatch would reach the wire path.
#include "fl/api.h"

void scale_all(std::vector<float>& values, float factor) {  // lint-expect: entry-check
  for (float& v : values) v *= factor;
}
