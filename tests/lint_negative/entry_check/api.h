// Fixture support for tools/apf_lint — NOT part of the build.
// lint-place: src/fl/
#pragma once
#include <vector>

void scale_all(std::vector<float>& values, float factor);  // lint-apf: allow-test-only-api(fixture stub)
