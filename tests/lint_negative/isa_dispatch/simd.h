// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/tensor/
//
// simd.h is the one place that queries the CPU; per-set code stays in the
// kernel files.
#pragma once

#include <sys/platform/x86.h>

inline bool avx2_active() { return CPU_FEATURE_ACTIVE(AVX2); }

__attribute__((target("avx2"))) inline void helper(float* c) {  // lint-expect: isa-dispatch
  c[0] = 1.f;
}
