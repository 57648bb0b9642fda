#include "wire/masked.h"

#include <algorithm>
#include <bit>

#include "util/bytes.h"
#include "util/debug.h"
#include "util/error.h"

namespace apf::wire {

namespace {

constexpr std::size_t kWordBits = 64;

/// Word w of the mask with the bits past the end of the mask set, so the
/// last, partial word is never mistaken for an all-clear one.
std::uint64_t frozen_word(std::span<const std::uint64_t> words, std::size_t w,
                          std::size_t dim) {
  const std::size_t valid = dim - w * kWordBits;
  if (valid >= kWordBits) return words[w];
  return words[w] | (~std::uint64_t{0} << valid);
}

}  // namespace

std::vector<float> pack_unfrozen(std::span<const float> full,
                                 const Bitmap& frozen_mask) {
  APF_CHECK(full.size() == frozen_mask.size());
  const std::size_t unfrozen = full.size() - frozen_mask.count();
  // One slot of slack: a mixed word stores every scalar before deciding
  // whether to keep it, so the store after the last unfrozen scalar lands
  // at index `unfrozen`. The slack is dropped before returning.
  std::vector<float> payload(unfrozen + 1);
  float* out = payload.data();
  const auto words = frozen_mask.words();
  std::size_t cursor = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::uint64_t frozen = frozen_word(words, w, full.size());
    if (frozen == ~std::uint64_t{0}) continue;
    const float* in = full.data() + w * kWordBits;
    if (frozen == 0) {
      std::copy(in, in + kWordBits, out + cursor);
      cursor += kWordBits;
      continue;
    }
    const std::size_t bits = std::min(kWordBits, full.size() - w * kWordBits);
    for (std::size_t b = 0; b < bits; ++b) {
      out[cursor] = in[b];
      cursor += static_cast<std::size_t>(((frozen >> b) & 1U) ^ 1U);
    }
  }
  APF_DEBUG_ASSERT_MSG(cursor == unfrozen,
                       "packed " << cursor << " scalars, mask implies "
                                 << unfrozen);
  payload.pop_back();
  return payload;
}

void unpack_unfrozen(std::span<const float> payload, const Bitmap& frozen_mask,
                     std::span<float> full) {
  APF_CHECK(full.size() == frozen_mask.size());
  APF_CHECK_MSG(
      payload.size() == full.size() - frozen_mask.count(),
      "payload size " << payload.size() << " != unfrozen count "
                      << full.size() - frozen_mask.count());
  const auto words = frozen_mask.words();
  std::size_t cursor = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::uint64_t frozen = frozen_word(words, w, full.size());
    float* out = full.data() + w * kWordBits;
    if (frozen == 0) {
      std::copy(payload.data() + cursor, payload.data() + cursor + kWordBits,
                out);
      cursor += kWordBits;
      continue;
    }
    // Visit only the clear bits, so frozen slots are never written.
    for (std::uint64_t open = ~frozen; open != 0; open &= open - 1) {
      out[std::countr_zero(open)] = payload[cursor++];
    }
  }
  APF_DEBUG_ASSERT_MSG(cursor == payload.size(),
                       "consumed " << cursor << " of " << payload.size()
                                   << " payload scalars");
}

namespace {
constexpr std::uint32_t kTagMasked = 0x314D5041;  // "APM1"
}

std::vector<std::uint8_t> encode_masked_update(std::span<const float> full,
                                               const Bitmap& frozen_mask) {
  APF_CHECK(full.size() == frozen_mask.size());
  ByteWriter writer;
  writer.reserve(8 + (full.size() + 7) / 8 +
                 (full.size() - frozen_mask.count()) * 4);
  writer.u32(kTagMasked);
  writer.u32(static_cast<std::uint32_t>(full.size()));
  writer.raw(frozen_mask.to_bytes());
  for (const float v : pack_unfrozen(full, frozen_mask)) writer.f32(v);
  return writer.take();
}

MaskedUpdate decode_masked_update(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes, "masked update");
  const std::uint32_t tag = reader.u32();
  APF_CHECK_MSG(tag == kTagMasked, "masked update: bad tag 0x" << std::hex
                                                               << tag);
  const std::uint32_t dim = reader.u32();
  const std::size_t mask_bytes = (static_cast<std::size_t>(dim) + 7) / 8;
  const auto mask_span = reader.raw(mask_bytes);
  MaskedUpdate out;
  out.frozen_mask = Bitmap::from_bytes(
      dim, std::vector<std::uint8_t>(mask_span.begin(), mask_span.end()));
  const std::size_t payload_count = dim - out.frozen_mask.count();
  reader.require(payload_count * 4);
  out.payload.resize(payload_count);
  for (auto& v : out.payload) v = reader.f32();
  reader.expect_exhausted();
  return out;
}

}  // namespace apf::wire
