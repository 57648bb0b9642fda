// Internal to src/tensor: the vector types, the load/store helpers and the
// one instruction-set choice shared by the GEMM tiles (ops.cpp) and the
// activation kernels (activations.cpp).
//
// The kernels use GCC vector extensions, no intrinsics. Two instruction
// sets exist: the baseline (16-byte vectors, SSE2 on x86-64) and AVX2
// (32-byte vectors). The process picks one once, from glibc's
// CPU_FEATURE_ACTIVE(AVX2) on x86-64, so GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2
// selects the baseline on an AVX2 host for every kernel at once. Other
// targets compile only the baseline. A kernel file maps each set to its
// entry points (a `Tiles<Isa>` specialization whose AVX2 entries carry
// __attribute__((target("avx2")))) and calls them through with_isa.
// Neither set enables FMA.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

// The AVX2 kernels are compiled on x86-64 when glibc can say whether the CPU
// and the OS let a process use AVX2; elsewhere only the baseline exists.
#if defined(__x86_64__) && __has_include(<sys/platform/x86.h>)
#include <sys/platform/x86.h>
#define APF_SIMD_AVX2 1
#endif

// Kernel helpers are forced inline, so each is compiled for the instruction
// set of the entry that calls it, and no vector crosses a call boundary.
#define APF_TILE [[gnu::always_inline]] inline

namespace apf::simd {

typedef float f32x2 __attribute__((vector_size(8)));
typedef float f32x4 __attribute__((vector_size(16)));
typedef float f32x8 __attribute__((vector_size(32)));
typedef double f64x2 __attribute__((vector_size(16)));
typedef double f64x4 __attribute__((vector_size(32)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));
typedef std::int32_t i32x8 __attribute__((vector_size(32)));
typedef std::uint32_t u32x4 __attribute__((vector_size(16)));
typedef std::uint32_t u32x8 __attribute__((vector_size(32)));
typedef std::uint64_t u64x2 __attribute__((vector_size(16)));
typedef std::uint64_t u64x4 __attribute__((vector_size(32)));

template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(std::declval<V&>()[0]);

// Unaligned vector load and store. They copy through a local, so the
// caller's accumulator arrays never have their address taken and stay in
// registers. (A 32-byte vector is never returned by value: the baseline
// ABI returns it differently.)
template <typename V, typename T>
APF_TILE void load(const T* p, V& v) {
  V x;
  std::memcpy(&x, p, sizeof x);
  v = x;
}

template <typename V, typename T>
APF_TILE void store(T* p, const V& v) {
  const V x = v;
  std::memcpy(p, &x, sizeof x);
}

// The baseline set: 16-byte vectors.
struct Sse2 {
  using Floats = f32x4;   // float lanes
  using Ints = i32x4;     // an int32 per float lane
  using Uints = u32x4;    // a uint32 per float lane
  using Doubles = f64x2;  // double lanes
  using Ulongs = u64x2;   // a uint64 per double lane
  using Halves = f32x2;   // a float per double lane
  static constexpr const char* kName = "sse2";
};

#ifdef APF_SIMD_AVX2
// The AVX2 set: 32-byte vectors.
struct Avx2 {
  using Floats = f32x8;
  using Ints = i32x8;
  using Uints = u32x8;
  using Doubles = f64x4;
  using Ulongs = u64x4;
  using Halves = f32x4;
  static constexpr const char* kName = "avx2";
};

// glibc's active bit: the CPU has AVX2, the OS saves its registers, and
// GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2 has not masked it.
inline bool avx2_active() {
  static const bool active = CPU_FEATURE_ACTIVE(AVX2);
  return active;
}
#endif

// Calls fn(Tiles<Isa>{}) for the instruction set this process uses.
template <template <typename> class Tiles, typename Fn>
void with_isa(const Fn& fn) {
#ifdef APF_SIMD_AVX2
  if (avx2_active()) {
    fn(Tiles<Avx2>{});
    return;
  }
#endif
  fn(Tiles<Sse2>{});
}

}  // namespace apf::simd
