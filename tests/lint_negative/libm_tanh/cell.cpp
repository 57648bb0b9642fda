// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/nn/
//
// libm tanh in a layer: the scalar call the span kernel replaces. The
// apf::tanh call is the sanctioned form and stays clean.
#include <cmath>
#include <span>

#include "tensor/activations.h"

float gate(float x) {
  return std::tanh(x);  // lint-expect: libm-tanh
}

float gate_f(float x) {
  return tanhf(x);  // lint-expect: libm-tanh
}

float gate_global(float x) {
  return ::tanh(x);  // lint-expect: libm-tanh
}

void gates(std::span<float> row) { apf::tanh(row, row); }
