#include "tensor/activations.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/error.h"

namespace apf {

namespace {

typedef float f32x4 __attribute__((vector_size(16)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));
typedef std::uint32_t u32x4 __attribute__((vector_size(16)));

constexpr std::size_t kLanes = 4;

constexpr float bits(std::uint32_t b) { return std::bit_cast<float>(b); }
constexpr f32x4 splat(float v) { return f32x4{v, v, v, v}; }
i32x4 as_int(f32x4 v) { return std::bit_cast<i32x4>(v); }
f32x4 as_float(i32x4 v) { return std::bit_cast<f32x4>(v); }

// fdlibm expm1f constants, by bit pattern.
constexpr f32x4 kLn2Hi = splat(bits(0x3f317180));   // 6.9313812256e-01
constexpr f32x4 kLn2Lo = splat(bits(0x3717f7d1));   // 9.0580006145e-06
constexpr f32x4 kInvLn2 = splat(bits(0x3fb8aa3b));  // 1.4426950216e+00
constexpr f32x4 kQ1 = splat(bits(0xbd088889));      // -3.3333335072e-02
constexpr f32x4 kQ2 = splat(bits(0x3ad00d01));      // 1.5873016091e-03
constexpr f32x4 kQ3 = splat(bits(0xb8a670cd));      // -7.9365076090e-05
constexpr f32x4 kQ4 = splat(bits(0x36867e54));      // 4.0082177293e-06
constexpr f32x4 kQ5 = splat(bits(0xb457edbb));      // -2.0109921195e-07
constexpr f32x4 kHalf = splat(0.5f);
constexpr f32x4 kOne = splat(1.f);
constexpr f32x4 kTwo = splat(2.f);
constexpr f32x4 kThree = splat(3.f);
constexpr f32x4 kSix = splat(6.f);
constexpr f32x4 kExpm1Max = splat(44.f);  // 2 * 22, tanhf's last expm1f
// tanhf's |x| >= 22 result, one - tiny: 1.0f once rounded (the tiny only
// raises inexact).
constexpr f32x4 kSaturated = splat(1.0f - 1.0e-30f);
constexpr i32x4 kSign = {INT32_MIN, INT32_MIN, INT32_MIN, INT32_MIN};

// Exact sign flips and choices between x and -x are done on the sign bit.
f32x4 flip_sign_where(i32x4 mask, f32x4 v) {
  return as_float(as_int(v) ^ (mask & kSign));
}

// The kernel runs in three stages over a block of up to kBlock vectors.
// One vector's path is a dependency chain of some 200 cycles; run stage by
// stage, each loop hands the core kBlock independent shorter chains.
constexpr std::size_t kBlock = 8;

struct Block {
  f32x4 v[kBlock];    // tanhf's x
  f32x4 u[kBlock];    // expm1f's argument
  f32x4 x[kBlock];    // reduced argument
  f32x4 c[kBlock];    // its rounding error
  i32x4 k[kBlock];    // u = k ln2 + x
  f32x4 hxs[kBlock];  // x * x / 2
  f32x4 e[kBlock];    // the approximation's correction term
};

// Stage 1: tanhf's expm1f argument u, then expm1f's argument reduction
// u = k ln2 + x (x = hi - lo, c the rounding error of hi - lo).
//
// |x| >= 1 takes u = 2|x|, |x| < 1 takes u = -2|x|. Lanes that take
// neither (|x| >= 22, inf, NaN) get 44 instead (the select maps NaN to its
// second operand), which keeps k in range; their result is never read.
// 0.5 ln2 < |u| < 1.5 ln2 (only negative u here) takes k = -1, larger |u|
// rounds u / ln2 to nearest, and |u| <= 0.5 ln2 keeps k = 0.
void reduce(Block& b, std::size_t j) {
  const i32x4 ix = as_int(b.v[j]) & ~kSign;
  const f32x4 u0 = flip_sign_where(~(ix >= 0x3f800000), kTwo * as_float(ix));
  const f32x4 u = u0 < kExpm1Max ? u0 : kExpm1Max;
  const i32x4 hu = as_int(u) & ~kSign;
  const f32x4 half = as_float((as_int(u) & kSign) | as_int(kHalf));  // +-0.5
  const i32x4 k_round = __builtin_convertvector(kInvLn2 * u + half, i32x4);
  const i32x4 reduced = hu > 0x3eb17218;
  const i32x4 k_minus_one = reduced & (hu < 0x3f851592);  // all ones
  const i32x4 k = (k_round & reduced) | k_minus_one;
  const f32x4 kf = __builtin_convertvector(k, f32x4);
  const f32x4 hi = u - kf * kLn2Hi;
  const f32x4 lo = kf * kLn2Lo;
  const f32x4 x = hi - lo;
  b.u[j] = u;
  b.k[j] = k;
  b.x[j] = x;
  b.c[j] = (hi - x) - lo;
}

// Stage 2: expm1f's rational approximation on the primary range.
void approximate(Block& b, std::size_t j) {
  const f32x4 x = b.x[j];
  const f32x4 hfx = kHalf * x;
  const f32x4 hxs = x * hfx;
  const f32x4 r1 =
      kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const f32x4 t = kThree - r1 * hfx;
  b.hxs[j] = hxs;
  b.e[j] = hxs * ((r1 - t) / (kSix - x * t));
}

// Stage 3: expm1f's reconstruction of exp(u) - 1 from k, x, c and e ...
f32x4 reconstruct(const Block& b, std::size_t j) {
  const f32x4 x = b.x[j], c = b.c[j], hxs = b.hxs[j];
  const i32x4 k = b.k[j];
  f32x4 e = b.e[j];
  const f32x4 k_zero = x - (x * e - hxs);

  e = (x * (e - c) - c);
  e -= hxs;
  const f32x4 k_minus_one = kHalf * (x - e) - kHalf;

  // k <= -2 or k > 56: y = 1 - (e - x), scaled by 2^k, minus 1.
  // 2 <= k < 23:       y = (1 - 2^-k) - (e - x), scaled by 2^k.
  // 23 <= k <= 56:     y = (x - (e + 2^-k)) + 1, scaled by 2^k.
  // (1 - 0 is exactly 1, so the first two share one subtraction.)
  const i32x4 far = (k <= -2) | (k > 56);
  const i32x4 p2_bits = (0x7f - k) << 23;  // 2^-k
  const f32x4 y_near = (kOne - as_float(p2_bits & ~far)) - (e - x);
  f32x4 y_mid = x - (e + as_float(p2_bits));
  y_mid += kOne;
  const f32x4 y = (k < 23) | far ? y_near : y_mid;
  // Adds k to y's exponent, in wrapping unsigned arithmetic.
  const f32x4 scaled = std::bit_cast<f32x4>(std::bit_cast<u32x4>(y) +
                                            (std::bit_cast<u32x4>(k) << 23));
  f32x4 r = scaled - as_float(as_int(kOne) & far);  // x - 0 is x

  r = k == -1 ? k_minus_one : r;
  r = k == 0 ? k_zero : r;
  // |u| < 2^-25 returns u itself.
  const f32x4 u = b.u[j];
  return (as_int(u) & ~kSign) < 0x33000000 ? u : r;
}

// ... and tanhf from it, t = expm1(+-2|x|): 1 - 2/(t+2) for |x| >= 1,
// -t/(t+2) below.
f32x4 finish(f32x4 v, f32x4 t) {
  const i32x4 jx = as_int(v);
  const i32x4 ix = jx & ~kSign;
  const i32x4 big = ix >= 0x3f800000;
  const f32x4 q = (big ? kTwo : -t) / (t + kTwo);
  f32x4 z = big ? kOne - q : q;
  z = ix < 0x41b00000 ? z : kSaturated;  // |x| >= 22 and +-inf
  z = flip_sign_where(jx, z);            // tanh(-x) = -tanh(x)
  // |x| < 2^-55 (+-0 included) gives x*(1+x), and so does NaN: a NaN.
  return (ix < 0x24000000) | (ix > 0x7f800000) ? v * (kOne + v) : z;
}

}  // namespace

void tanh(std::span<const float> x, std::span<float> y) {
  APF_CHECK_MSG(x.size() == y.size(), "tanh: input has " << x.size()
                                          << " elements, output "
                                          << y.size());
  // Left uninitialized: each stage reads only the slots j < vectors that
  // an earlier stage wrote, and zeroing the block would cost about a tenth
  // of a 32-element call.
  Block b;
  for (std::size_t i = 0; i < x.size(); i += kBlock * kLanes) {
    // The last vector of the span is zero-padded.
    const std::size_t count = std::min(kBlock * kLanes, x.size() - i);
    const std::size_t vectors = (count + kLanes - 1) / kLanes;
    b.v[vectors - 1] = f32x4{};
    std::memcpy(b.v, x.data() + i, count * sizeof(float));
    for (std::size_t j = 0; j < vectors; ++j) reduce(b, j);
    for (std::size_t j = 0; j < vectors; ++j) approximate(b, j);
    for (std::size_t j = 0; j < vectors; ++j)
      b.v[j] = finish(b.v[j], reconstruct(b, j));
    std::memcpy(y.data() + i, b.v, count * sizeof(float));
  }
}

}  // namespace apf
