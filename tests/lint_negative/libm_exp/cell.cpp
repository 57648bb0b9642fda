// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/nn/
//
// libm exp in a layer: the scalar calls the span kernels replace. The
// apf::exp and apf::sigmoid calls are the sanctioned forms, and other libm
// functions whose names start with exp stay clean.
#include <cmath>
#include <span>

#include "tensor/activations.h"

float gate(float x) {
  return 1.f / (1.f + std::exp(-x));  // lint-expect: libm-exp
}

float gate_f(float x) {
  return 1.f / (1.f + expf(-x));  // lint-expect: libm-exp
}

float gate_global(float x) {
  return ::exp(x);  // lint-expect: libm-exp
}

float gate_global_f(float x) {
  return ::expf(x);  // lint-expect: libm-exp
}

float others(float x) { return std::expm1(x) + std::exp2(x) + ::expm1f(x); }

void gates(std::span<float> row) {
  apf::sigmoid(row, row);
  apf::exp(row, row);
}
