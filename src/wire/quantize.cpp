#include "wire/quantize.h"

#include <bit>
#include <cmath>

namespace apf::wire {

std::uint16_t float_to_half(float value) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::int32_t exponent =
      static_cast<std::int32_t>((bits >> 23) & 0xFFu) - 127 + 15;
  std::uint32_t mantissa = bits & 0x7FFFFFu;

  if (((bits >> 23) & 0xFFu) == 0xFFu) {
    // Inf / NaN.
    const std::uint16_t payload = mantissa ? 0x200u : 0u;
    return static_cast<std::uint16_t>(sign | 0x7C00u | payload);
  }
  if (exponent >= 31) {
    // Overflow -> infinity.
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (exponent <= 0) {
    // Subnormal half (or zero).
    if (exponent < -10) return static_cast<std::uint16_t>(sign);
    mantissa |= 0x800000u;  // implicit leading 1
    const int shift = 14 - exponent;
    std::uint32_t half_mant = mantissa >> shift;
    // Round to nearest even.
    const std::uint32_t rem = mantissa & ((1u << shift) - 1);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) ++half_mant;
    return static_cast<std::uint16_t>(sign | half_mant);
  }
  // Normalized half with round-to-nearest-even on the 13 dropped bits.
  std::uint32_t half =
      sign | (static_cast<std::uint32_t>(exponent) << 10) | (mantissa >> 13);
  const std::uint32_t rem = mantissa & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
  return static_cast<std::uint16_t>(half);
}

float half_to_float(std::uint16_t half) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(half) & 0x8000u) << 16;
  const std::uint32_t exponent = (half >> 10) & 0x1Fu;
  std::uint32_t mantissa = half & 0x3FFu;

  if (exponent == 0x1Fu) {
    // Inf / NaN.
    return std::bit_cast<float>(sign | 0x7F800000u | (mantissa << 13));
  }
  if (exponent == 0) {
    if (mantissa == 0) return std::bit_cast<float>(sign);
    // Subnormal: normalize.
    int e = -1;
    do {
      ++e;
      mantissa <<= 1;
    } while ((mantissa & 0x400u) == 0);
    mantissa &= 0x3FFu;
    const std::uint32_t exp32 = static_cast<std::uint32_t>(127 - 15 - e);
    return std::bit_cast<float>(sign | (exp32 << 23) | (mantissa << 13));
  }
  const std::uint32_t exp32 = exponent - 15 + 127;
  return std::bit_cast<float>(sign | (exp32 << 23) | (mantissa << 13));
}

}  // namespace apf::wire
