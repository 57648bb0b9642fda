// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/tensor/
//
// The activation kernels' file holds AVX2 entry points; nothing here is
// reported.
__attribute__((target("avx2"))) void tanh_avx2(float* y) { y[0] = 0.f; }
