// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/tensor/
//
// The activation kernels' file holds AVX2 entry points and may call raw x86
// builtins; nothing here is reported.
__attribute__((target("avx2"))) void tanh_avx2(float* y) { y[0] = 0.f; }

typedef float v8f __attribute__((vector_size(32)));

__attribute__((target("avx2,fma"))) v8f fma_avx2(v8f a, v8f b, v8f c) {
  return __builtin_ia32_vfmaddps256(a, b, c);
}
