// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/wire/
// lint-wire-doc: | `ADX1` | densy fp32 | count u32, values f32[count] | 8 + 4·count |
//
// The dropped-header shape: the encoder forgets the 4-byte ASCII tag,
// so every frame is 4 bytes smaller than the documented formula (and the
// decoder's check_tag eats the count field as the tag). The prover derives
// 4 + 4·count, resolves the documented tag through the paired decoder's
// check_tag, and rejects the divergence from 8 + 4·count.
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fixture {

constexpr std::uint32_t kTagDensy = 0x31584441;  // "ADX1"

std::vector<std::uint8_t> encode_densy(const std::vector<float>& values) {  // lint-expect: wire-size
  ByteWriter writer;
  // BUG: writer.u32(kTagDensy) header write is missing.
  writer.u32(static_cast<std::uint32_t>(values.size()));
  for (const float v : values) {
    writer.f32(v);
  }
  return writer.take();
}

std::vector<float> decode_densy(std::span<const std::uint8_t> frame) {
  ByteReader reader(frame);
  check_tag(reader, kTagDensy);
  const std::uint32_t count = reader.u32();
  reader.require(static_cast<std::size_t>(count) * 4);
  std::vector<float> values(count);
  for (std::uint32_t j = 0; j < count; ++j) {
    values[j] = reader.f32();
  }
  return values;
}

}  // namespace fixture
