#include "compress/codecs.h"

#include <algorithm>

#include "util/error.h"
#include "wire/wire.h"

namespace apf::compress {

QsgdCodec::QsgdCodec(unsigned bits)
    : bits_(bits), levels_((1u << bits) - 1) {
  APF_CHECK(bits >= 1 && bits <= 16);
}

void QsgdCodec::encode_decode(std::span<float> update, Rng& rng) const {
  // Quantize/dequantize through the shared wire helpers so the in-place
  // value distortion is bit-identical to what a receiver decodes from the
  // "APQ1" byte format (including the fp32 rounding of the transmitted
  // norm).
  const wire::QsgdPayload payload = wire::qsgd_quantize(update, bits_, rng);
  const std::vector<float> decoded = wire::qsgd_dequantize(payload);
  std::copy(decoded.begin(), decoded.end(), update.begin());
}

std::vector<std::uint8_t> QsgdCodec::encode(std::span<const float> update,
                                            Rng& rng) const {
  return wire::encode_qsgd(wire::qsgd_quantize(update, bits_, rng));
}

std::vector<float> QsgdCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  return wire::qsgd_dequantize(wire::decode_qsgd(bytes));
}

double QsgdCodec::wire_bytes(std::size_t n) const {
  // bits per magnitude + 1 sign bit per element, plus the fp32 norm.
  return static_cast<double>(n) * (bits_ + 1) / 8.0 + 4.0;
}

std::string QsgdCodec::name() const {
  return "QSGD" + std::to_string(bits_) + "b";
}

void TernGradCodec::encode_decode(std::span<float> update, Rng& rng) const {
  const wire::TernPayload payload = wire::terngrad_quantize(update, rng);
  const std::vector<float> decoded = wire::terngrad_dequantize(payload);
  std::copy(decoded.begin(), decoded.end(), update.begin());
}

std::vector<std::uint8_t> TernGradCodec::encode(std::span<const float> update,
                                                Rng& rng) const {
  return wire::encode_terngrad(wire::terngrad_quantize(update, rng));
}

std::vector<float> TernGradCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  return wire::terngrad_dequantize(wire::decode_terngrad(bytes));
}

double TernGradCodec::wire_bytes(std::size_t n) const {
  return static_cast<double>(n) * 2.0 / 8.0 + 4.0;
}

}  // namespace apf::compress
