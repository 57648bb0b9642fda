// Stochastic gradient/update codecs from the communication-compression
// literature the paper surveys (§2): QSGD (Alistarh et al.) and TernGrad
// (Wen et al.). A codec maps an update vector to its framed wire buffer and
// back; byte accounting is the measured size of that buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace apf::compress {

class UpdateCodec {
 public:
  virtual ~UpdateCodec() = default;

  /// Quantizes `update` into its framed wire buffer. Stochastic codecs draw
  /// their rounding from `rng`.
  virtual std::vector<std::uint8_t> encode(std::span<const float> update,
                                           Rng& rng) const = 0;

  /// Decodes a buffer produced by encode() into the values the receiver
  /// sees. Raises apf::Error on malformed framing.
  virtual std::vector<float> decode(
      std::span<const std::uint8_t> bytes) const = 0;

  virtual std::string name() const = 0;
};

/// QSGD with s = 2^bits - 1 quantization levels: each coordinate is
/// stochastically rounded to sign * ||u||_2 * level / s, which is unbiased
/// (E[q(u)] = u). Wire cost: (bits + 1 sign bit) per element + the norm.
class QsgdCodec : public UpdateCodec {
 public:
  explicit QsgdCodec(unsigned bits);

  std::vector<std::uint8_t> encode(std::span<const float> update,
                                   Rng& rng) const override;
  std::vector<float> decode(
      std::span<const std::uint8_t> bytes) const override;
  std::string name() const override;

  unsigned bits() const { return bits_; }
  unsigned levels() const { return levels_; }

 private:
  unsigned bits_;
  unsigned levels_;
};

/// TernGrad: coordinates quantized to {-1, 0, +1} * max|u| with stochastic
/// selection probability |u_i| / max|u| (unbiased). Wire cost: 2 bits per
/// element + the scale.
class TernGradCodec : public UpdateCodec {
 public:
  std::vector<std::uint8_t> encode(std::span<const float> update,
                                   Rng& rng) const override;
  std::vector<float> decode(
      std::span<const std::uint8_t> bytes) const override;
  std::string name() const override { return "TernGrad"; }
};

}  // namespace apf::compress
