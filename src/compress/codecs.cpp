#include "compress/codecs.h"

#include "util/error.h"
#include "wire/wire.h"

namespace apf::compress {

QsgdCodec::QsgdCodec(unsigned bits)
    : bits_(bits), levels_((1u << bits) - 1) {
  APF_CHECK(bits >= 1 && bits <= 16);
}

std::vector<std::uint8_t> QsgdCodec::encode(std::span<const float> update,
                                            Rng& rng) const {
  return wire::encode_qsgd(wire::qsgd_quantize(update, bits_, rng));
}

std::vector<float> QsgdCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  return wire::qsgd_dequantize(wire::decode_qsgd(bytes));
}

std::string QsgdCodec::name() const {
  return "QSGD" + std::to_string(bits_) + "b";
}

std::vector<std::uint8_t> TernGradCodec::encode(std::span<const float> update,
                                                Rng& rng) const {
  return wire::encode_terngrad(wire::terngrad_quantize(update, rng));
}

std::vector<float> TernGradCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  return wire::terngrad_dequantize(wire::decode_terngrad(bytes));
}

}  // namespace apf::compress
