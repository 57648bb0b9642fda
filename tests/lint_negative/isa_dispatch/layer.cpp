// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/nn/
//
// A layer that picks its own instruction set: a second dispatch point the
// kernels would not know about. Calls named like the attribute
// (find_target, probe.target) stay clean.
#include <immintrin.h>  // lint-expect: isa-dispatch
#include <x86intrin.h>  // lint-expect: isa-dispatch
#include <sys/platform/x86.h>  // lint-expect: isa-dispatch

__attribute__((target("avx2"))) void gates_avx2(float* c) {  // lint-expect: isa-dispatch
  c[0] = 1.f;
}

[[gnu::target("avx512f")]] void gates_avx512(float* c) {  // lint-expect: isa-dispatch
  c[0] = 2.f;
}

__attribute__((target_clones("avx2", "default"))) void gates(float* c) {  // lint-expect: isa-dispatch
  c[0] = 3.f;
}

#pragma GCC target("fma")  // lint-expect: isa-dispatch

typedef double v4d __attribute__((vector_size(32)));

// A raw x86 builtin is per-instruction-set code too, without any attribute
// or header to give it away.
v4d gates_fma(v4d a, v4d b, v4d c) {
  return __builtin_ia32_vfmaddpd256(a, b, c);  // lint-expect: isa-dispatch
}

unsigned gates_crc(unsigned crc, unsigned x) { return __builtin_ia32_crc32si(crc, x); }  // lint-expect: isa-dispatch

bool fast() {
  return __builtin_cpu_supports("avx2");  // lint-expect: isa-dispatch
}

bool active() {
  return CPU_FEATURE_ACTIVE(AVX2);  // lint-expect: isa-dispatch
}

struct Probe {
  int target(const char* name) const { return name[0]; }
};

int find_target(const char* name) { return name[0]; }

int lookups(const Probe& probe) {
  return find_target("apf-rounds") + probe.target("masked");
}
