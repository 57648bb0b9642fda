// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/tensor/
//
// The kernel's own file is the one place libm exp may appear (its lanes at
// |x| >= 20 call it); nothing here is reported.
#include <cmath>

float slow_lane(float x) { return std::exp(x); }
