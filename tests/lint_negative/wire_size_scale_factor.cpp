// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/wire/
// lint-wire-doc: | `AHX1` | half-ish dense | count u32, halves u16[count] | 8 + 2·count |
//
// The scale-factor shape: the documented format carries u16 halves
// (2 bytes per element) but the encoder writes u32 per element, so every
// reported byte count is double the documented formula. The prover derives
// 8 + 4·count from the ByteWriter call sequence and rejects it against the
// documented 8 + 2·count.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fixture {

constexpr std::uint32_t kTagHalfish = 0x31584841;  // "AHX1"

std::uint16_t float_to_half(float value);

std::vector<std::uint8_t> encode_halfish(const std::vector<float>& values) {  // lint-expect: wire-size
  ByteWriter writer;
  writer.u32(kTagHalfish);
  writer.u32(static_cast<std::uint32_t>(values.size()));
  for (const float v : values) {
    writer.u32(float_to_half(v));  // BUG: documented element width is u16
  }
  return writer.take();
}

}  // namespace fixture
