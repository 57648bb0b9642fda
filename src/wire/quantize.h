// IEEE-754 half-precision codec.
//
// The paper's APF+Quantization variant (§7.7) transmits parameters as 16-bit
// halves via Tensor.half(). This codec provides the same conversion; the
// QuantizedSync wrapper applies it around any SyncStrategy.
#pragma once

#include <cstdint>

namespace apf::wire {

/// float32 -> float16 bit pattern (round-to-nearest-even, with proper
/// handling of subnormals, infinities and NaN).
std::uint16_t float_to_half(float value);

/// float16 bit pattern -> float32.
float half_to_float(std::uint16_t half);

}  // namespace apf::wire
