#include "tensor/activations.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/simd.h"
#include "util/error.h"

namespace apf {

namespace {

using simd::kLanes;
using simd::load;
using simd::store;

// Vectors are reinterpreted with __builtin_bit_cast and combined with
// scalar constants (GCC broadcasts a scalar operand), so no helper returns
// a vector by value: a 32-byte vector crosses no call boundary.
constexpr float bits(std::uint32_t b) { return std::bit_cast<float>(b); }
constexpr std::int32_t kSign = INT32_MIN;

// ---------------------------------------------------------------------------
// tanh: glibc's tanhf over fdlibm's expm1f
// ---------------------------------------------------------------------------

// fdlibm expm1f constants, by bit pattern.
constexpr float kLn2Hi = bits(0x3f317180);   // 6.9313812256e-01
constexpr float kLn2Lo = bits(0x3717f7d1);   // 9.0580006145e-06
constexpr float kInvLn2 = bits(0x3fb8aa3b);  // 1.4426950216e+00
constexpr float kQ1 = bits(0xbd088889);      // -3.3333335072e-02
constexpr float kQ2 = bits(0x3ad00d01);      // 1.5873016091e-03
constexpr float kQ3 = bits(0xb8a670cd);      // -7.9365076090e-05
constexpr float kQ4 = bits(0x36867e54);      // 4.0082177293e-06
constexpr float kQ5 = bits(0xb457edbb);      // -2.0109921195e-07
constexpr float kExpm1Max = 44.f;  // 2 * 22, tanhf's last expm1f
// tanhf's |x| >= 22 result, one - tiny: 1.0f once rounded (the tiny only
// raises inexact).
constexpr float kSaturated = 1.0f - 1.0e-30f;

// The kernel runs in three stages over a block of up to kBlock vectors.
// One vector's path is a dependency chain of some 200 cycles; run stage by
// stage, each loop hands the core kBlock independent shorter chains.
constexpr std::size_t kBlock = 8;

template <typename Isa>
struct TanhBlock {
  using F = typename Isa::Floats;
  using I = typename Isa::Ints;
  F v[kBlock];    // tanhf's x
  F u[kBlock];    // expm1f's argument
  F x[kBlock];    // reduced argument
  F c[kBlock];    // its rounding error
  I k[kBlock];    // u = k ln2 + x
  F hxs[kBlock];  // x * x / 2
  F e[kBlock];    // the approximation's correction term
};

// Stage 1: tanhf's expm1f argument u, then expm1f's argument reduction
// u = k ln2 + x (x = hi - lo, c the rounding error of hi - lo).
//
// |x| >= 1 takes u = 2|x|, |x| < 1 takes u = -2|x|. Lanes that take
// neither (|x| >= 22, inf, NaN) get 44 instead (the select maps NaN to its
// second operand), which keeps k in range; their result is never read.
// 0.5 ln2 < |u| < 1.5 ln2 (only negative u here) takes k = -1, larger |u|
// rounds u / ln2 to nearest, and |u| <= 0.5 ln2 keeps k = 0.
template <typename Isa>
APF_TILE void reduce(TanhBlock<Isa>& b, std::size_t j) {
  using F = typename Isa::Floats;
  using I = typename Isa::Ints;
  const I ix = __builtin_bit_cast(I, b.v[j]) & ~kSign;
  // 2|x|, negated (a sign-bit flip) below 1.
  const I two_abs = __builtin_bit_cast(I, 2.f * __builtin_bit_cast(F, ix));
  const F u0 = __builtin_bit_cast(F, two_abs ^ (~(ix >= 0x3f800000) & kSign));
  const F u = u0 < kExpm1Max ? u0 : kExpm1Max;
  const I hu = __builtin_bit_cast(I, u) & ~kSign;
  // +-0.5 with u's sign.
  const F half = __builtin_bit_cast(F, (__builtin_bit_cast(I, u) & kSign) |
                                           std::bit_cast<std::int32_t>(0.5f));
  const I k_round = __builtin_convertvector(kInvLn2 * u + half, I);
  const I reduced = hu > 0x3eb17218;
  const I k_minus_one = reduced & (hu < 0x3f851592);  // all ones
  const I k = (k_round & reduced) | k_minus_one;
  const F kf = __builtin_convertvector(k, F);
  const F hi = u - kf * kLn2Hi;
  const F lo = kf * kLn2Lo;
  const F x = hi - lo;
  b.u[j] = u;
  b.k[j] = k;
  b.x[j] = x;
  b.c[j] = (hi - x) - lo;
}

// Stage 2: expm1f's rational approximation on the primary range.
template <typename Isa>
APF_TILE void approximate(TanhBlock<Isa>& b, std::size_t j) {
  using F = typename Isa::Floats;
  const F x = b.x[j];
  const F hfx = 0.5f * x;
  const F hxs = x * hfx;
  const F r1 =
      1.f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const F t = 3.f - r1 * hfx;
  b.hxs[j] = hxs;
  b.e[j] = hxs * ((r1 - t) / (6.f - x * t));
}

// Stage 3: expm1f's reconstruction of t = exp(u) - 1 from k, x, c and e ...
template <typename Isa>
APF_TILE void reconstruct(const TanhBlock<Isa>& b, std::size_t j,
                          typename Isa::Floats& out) {
  using F = typename Isa::Floats;
  using I = typename Isa::Ints;
  using U = typename Isa::Uints;
  const F x = b.x[j], c = b.c[j], hxs = b.hxs[j];
  const I k = b.k[j];
  F e = b.e[j];
  const F k_zero = x - (x * e - hxs);

  e = (x * (e - c) - c);
  e -= hxs;
  const F k_minus_one = 0.5f * (x - e) - 0.5f;

  // k <= -2 or k > 56: y = 1 - (e - x), scaled by 2^k, minus 1.
  // 2 <= k < 23:       y = (1 - 2^-k) - (e - x), scaled by 2^k.
  // 23 <= k <= 56:     y = (x - (e + 2^-k)) + 1, scaled by 2^k.
  // (1 - 0 is exactly 1, so the first two share one subtraction.)
  const I far = (k <= -2) | (k > 56);
  const I p2_bits = (0x7f - k) << 23;  // 2^-k
  const F y_near = (1.f - __builtin_bit_cast(F, p2_bits & ~far)) - (e - x);
  F y_mid = x - (e + __builtin_bit_cast(F, p2_bits));
  y_mid += 1.f;
  const F y = (k < 23) | far ? y_near : y_mid;
  // Adds k to y's exponent, in wrapping unsigned arithmetic.
  const F scaled = __builtin_bit_cast(
      F, __builtin_bit_cast(U, y) + (__builtin_bit_cast(U, k) << 23));
  F r = scaled - __builtin_bit_cast(F, std::bit_cast<std::int32_t>(1.f) & far);

  r = k == -1 ? k_minus_one : r;
  r = k == 0 ? k_zero : r;
  // |u| < 2^-25 returns u itself.
  const F u = b.u[j];
  out = (__builtin_bit_cast(I, u) & ~kSign) < 0x33000000 ? u : r;
}

// ... and tanhf from it, over v: 1 - 2/(t+2) for |x| >= 1, -t/(t+2) below.
template <typename Isa>
APF_TILE void finish(TanhBlock<Isa>& b, std::size_t j,
                     const typename Isa::Floats& t) {
  using F = typename Isa::Floats;
  using I = typename Isa::Ints;
  const F v = b.v[j];
  const I jx = __builtin_bit_cast(I, v);
  const I ix = jx & ~kSign;
  const I big = ix >= 0x3f800000;
  const F q = (big ? 2.f : -t) / (t + 2.f);
  F z = big ? 1.f - q : q;
  z = ix < 0x41b00000 ? z : kSaturated;  // |x| >= 22 and +-inf
  // tanh(-x) = -tanh(x).
  z = __builtin_bit_cast(F, __builtin_bit_cast(I, z) ^ (jx & kSign));
  // |x| < 2^-55 (+-0 included) gives x*(1+x), and so does NaN: a NaN.
  b.v[j] = (ix < 0x24000000) | (ix > 0x7f800000) ? v * (1.f + v) : z;
}

template <typename Isa>
APF_TILE void tanh_span(const float* x, float* y, std::size_t n) {
  using F = typename Isa::Floats;
  constexpr std::size_t kL = kLanes<F>;
  // Left uninitialized: each stage reads only the slots j < vectors that
  // an earlier stage wrote, and zeroing the block would cost about a tenth
  // of a 32-element call.
  TanhBlock<Isa> b;
  for (std::size_t i = 0; i < n; i += kBlock * kL) {
    // The last vector of the span is zero-padded.
    const std::size_t count = std::min(kBlock * kL, n - i);
    const std::size_t vectors = (count + kL - 1) / kL;
    b.v[vectors - 1] = F{};
    std::memcpy(b.v, x + i, count * sizeof(float));
    for (std::size_t j = 0; j < vectors; ++j) reduce(b, j);
    for (std::size_t j = 0; j < vectors; ++j) approximate(b, j);
    for (std::size_t j = 0; j < vectors; ++j) {
      F t;
      reconstruct(b, j, t);
      finish(b, j, t);
    }
    std::memcpy(y + i, b.v, count * sizeof(float));
  }
}

// ---------------------------------------------------------------------------
// exp and sigmoid: glibc's expf (sysdeps/ieee754/flt-32/e_expf.c)
// ---------------------------------------------------------------------------

// __exp2f_data (e_exp2f_data.c): tab[i] = bits(2^(i/32)) - (i << 47), so
// that bits(2^(k/32)) = tab[k % 32] + (k << 47) for an integer k.
constexpr std::uint64_t kExp2Tab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kExp2N = 32;
constexpr double kInvLn2N = 0x1.71547652b82fep+0 * kExp2N;
constexpr double kShift = 0x1.8p+52;  // z + kShift rounds z to an integer
constexpr double kC0 = 0x1.c6af84b912394p-5 / kExp2N / kExp2N / kExp2N;
constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / kExp2N / kExp2N;
constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / kExp2N;
// Lanes at or above |x| = 20 (and inf, NaN), by bit pattern, go to libm.
constexpr std::int32_t kExpFastLimit = 0x41a00000;  // 20.0f

bool needs_libm(float x) {
  return (std::bit_cast<std::int32_t>(x) & ~kSign) >= kExpFastLimit;
}

// One double vector's worth of floats: e = expf(x) in each lane, then, for
// sigmoid, 1.f / (1.f + e) in float.
//
// Each lane runs glibc's expf in its order: x * N / ln2 = k + r by the
// shift-constant rounding, 2^(k/N) from the table, the degree-3 polynomial
// in r, one multiply and one rounding to float. The file is compiled with
// -ffp-contract=off, so each operation rounds as glibc's non-FMA build
// does. That build equals libm's for |x| < 89, and the FMA build for
// |x| < 20; lanes with |x| >= 20, inf or NaN are redone with libm. out may
// be x: x is read before out is written.
template <typename Isa, bool kSigmoid>
APF_TILE void exp_lanes(const typename Isa::Halves& x,
                        typename Isa::Halves& out) {
  using D = typename Isa::Doubles;
  using L = typename Isa::Ulongs;
  using H = typename Isa::Halves;
  const D z = kInvLn2N * __builtin_convertvector(kSigmoid ? -x : x, D);
  D kd = z + kShift;
  const L ki = __builtin_bit_cast(L, kd);
  kd -= kShift;
  const D r = z - kd;
  L t;
  for (std::size_t l = 0; l < kLanes<D>; ++l) t[l] = kExp2Tab[ki[l] % 32];
  t += ki << 47;
  const D s = __builtin_bit_cast(D, t);
  const D p = kC0 * r + kC1;
  const D r2 = r * r;
  D y = kC2 * r + 1.0;
  y = p * r2 + y;
  y = y * s;
  H e = __builtin_convertvector(y, H);
  if constexpr (kSigmoid) e = 1.f / (1.f + e);
  for (std::size_t l = 0; l < kLanes<D>; ++l) {
    if (needs_libm(x[l])) [[unlikely]] {
      e[l] = kSigmoid ? 1.f / (1.f + std::exp(-x[l])) : std::exp(x[l]);
    }
  }
  out = e;
}

// y = exp(x) or sigmoid(x) over a span, a double vector at a time (y may
// be x).
template <typename Isa, bool kSigmoid>
APF_TILE void exp_span(const float* x, float* y, std::size_t n) {
  using H = typename Isa::Halves;
  constexpr std::size_t kD = kLanes<H>;
  std::size_t i = 0;
  for (; i + kD <= n; i += kD) {
    H v;
    load(x + i, v);
    exp_lanes<Isa, kSigmoid>(v, v);
    store(y + i, v);
  }
  if (i < n) {  // the last, zero-padded vector
    float buf[kD] = {};
    std::memcpy(buf, x + i, (n - i) * sizeof(float));
    H v;
    load(buf, v);
    exp_lanes<Isa, kSigmoid>(v, v);
    store(buf, v);
    std::memcpy(y + i, buf, (n - i) * sizeof(float));
  }
}

// The activation entry points of each instruction set (tensor/simd.h).
template <typename Isa>
struct Tiles;

template <>
struct Tiles<simd::Sse2> {
  static void tanh(const float* x, float* y, std::size_t n) {
    tanh_span<simd::Sse2>(x, y, n);
  }
  static void exp(const float* x, float* y, std::size_t n) {
    exp_span<simd::Sse2, false>(x, y, n);
  }
  static void sigmoid(const float* x, float* y, std::size_t n) {
    exp_span<simd::Sse2, true>(x, y, n);
  }
};

#ifdef APF_SIMD_AVX2
template <>
struct Tiles<simd::Avx2> {
  __attribute__((target("avx2"))) static void tanh(const float* x, float* y,
                                                    std::size_t n) {
    tanh_span<simd::Avx2>(x, y, n);
  }
  __attribute__((target("avx2"))) static void exp(const float* x, float* y,
                                                   std::size_t n) {
    exp_span<simd::Avx2, false>(x, y, n);
  }
  __attribute__((target("avx2"))) static void sigmoid(const float* x,
                                                       float* y,
                                                       std::size_t n) {
    exp_span<simd::Avx2, true>(x, y, n);
  }
};
#endif

void check_sizes(const char* name, std::span<const float> x,
                 std::span<float> y) {
  APF_CHECK_MSG(x.size() == y.size(), name << ": input has " << x.size()
                                           << " elements, output "
                                           << y.size());
}

}  // namespace

void tanh(std::span<const float> x, std::span<float> y) {
  check_sizes("tanh", x, y);
  simd::with_isa<Tiles>([&](auto isa) {
    decltype(isa)::tanh(x.data(), y.data(), x.size());
  });
}

void exp(std::span<const float> x, std::span<float> y) {
  check_sizes("exp", x, y);
  simd::with_isa<Tiles>([&](auto isa) {
    decltype(isa)::exp(x.data(), y.data(), x.size());
  });
}

void sigmoid(std::span<const float> x, std::span<float> y) {
  check_sizes("sigmoid", x, y);
  simd::with_isa<Tiles>([&](auto isa) {
    decltype(isa)::sigmoid(x.data(), y.data(), x.size());
  });
}

}  // namespace apf
