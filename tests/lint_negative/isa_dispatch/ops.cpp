// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/tensor/
//
// The GEMM kernels' own file is the one place that picks an instruction
// set; nothing here is reported.
#include <immintrin.h>
#include <sys/platform/x86.h>

__attribute__((target("avx2"))) void tile_avx2(float* c) { c[0] = 1.f; }

bool avx2_active() { return CPU_FEATURE_ACTIVE(AVX2); }
