// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/tensor/
//
// A kernel file may hold per-set entry points, but the instruction-set
// query belongs to src/tensor/simd.h: a second query would be a second
// dispatch point.
#include <immintrin.h>
#include <sys/platform/x86.h>  // lint-expect: isa-dispatch

__attribute__((target("avx2"))) void tile_avx2(float* c) { c[0] = 1.f; }

bool avx2_active() { return CPU_FEATURE_ACTIVE(AVX2); }  // lint-expect: isa-dispatch
