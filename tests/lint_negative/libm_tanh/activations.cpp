// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/tensor/
//
// The kernel's own file is the one place libm tanh may appear (its tests
// compare against it); nothing here is reported.
#include <cmath>

float reference(float x) { return std::tanh(x); }
