#include "wire/wire.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "wire/quantize.h"
#include "util/bytes.h"
#include "util/error.h"

namespace apf::wire {

namespace {

constexpr std::uint32_t kTagSparse = 0x31535041;  // "APS1"
constexpr std::uint32_t kTagRandk = 0x31525041;   // "APR1"
constexpr std::uint32_t kTagFp16 = 0x31485041;    // "APH1"
constexpr std::uint32_t kTagDense = 0x31445041;   // "APD1"
constexpr std::uint32_t kTagQsgd = 0x31515041;    // "APQ1"
constexpr std::uint32_t kTagTern = 0x31545041;    // "APT1"

void check_tag(ByteReader& reader, std::uint32_t expected,
               const char* format) {
  const std::uint32_t tag = reader.u32();
  APF_CHECK_MSG(tag == expected, format << ": bad tag 0x" << std::hex << tag);
}

/// Reads `count` f32 values after verifying the bytes actually exist, so a
/// lying count field cannot trigger a huge allocation. The values are bit
/// copies (NaN payloads included) taken from one bounds-checked raw() span.
std::vector<float> read_f32_array(ByteReader& reader, std::size_t count) {
  const std::span<const std::uint8_t> bytes = reader.raw(count * 4);
  std::vector<float> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* b = bytes.data() + 4 * i;
    out[i] = std::bit_cast<float>(static_cast<std::uint32_t>(b[0]) |
                                  static_cast<std::uint32_t>(b[1]) << 8 |
                                  static_cast<std::uint32_t>(b[2]) << 16 |
                                  static_cast<std::uint32_t>(b[3]) << 24);
  }
  return out;
}

void write_f32_array(ByteWriter& writer, std::span<const float> values) {
  for (float v : values) writer.f32(v);
}

}  // namespace

// ---------------------------------------------------------------------------
// sparse
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_sparse(const SparsePayload& payload) {
  APF_CHECK_MSG(payload.indices.size() == payload.values.size(),
                "sparse encode: " << payload.indices.size() << " indices vs "
                                  << payload.values.size() << " values");
  APF_CHECK(payload.indices.size() <= payload.dim);
  ByteWriter writer;
  writer.reserve(12 + payload.indices.size() * 8);
  writer.u32(kTagSparse);
  writer.u32(payload.dim);
  writer.u32(static_cast<std::uint32_t>(payload.indices.size()));
  std::uint64_t prev = 0;
  bool first = true;
  for (const std::uint32_t idx : payload.indices) {
    APF_CHECK_MSG(idx < payload.dim, "sparse encode: index " << idx
                                                             << " >= dim "
                                                             << payload.dim);
    APF_CHECK_MSG(first || idx > prev,
                  "sparse encode: indices not strictly ascending at " << idx);
    first = false;
    prev = idx;
    writer.u32(idx);
  }
  write_f32_array(writer, payload.values);
  return writer.take();
}

SparsePayload decode_sparse(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes, "sparse payload");
  check_tag(reader, kTagSparse, "sparse payload");
  SparsePayload out;
  out.dim = reader.u32();
  const std::uint32_t count = reader.u32();
  APF_CHECK_MSG(count <= out.dim, "sparse payload: count " << count
                                                           << " > dim "
                                                           << out.dim);
  reader.require(static_cast<std::size_t>(count) * 8);  // indices + values
  out.indices.resize(count);
  std::uint64_t prev = 0;
  bool first = true;
  for (auto& idx : out.indices) {
    idx = reader.u32();
    APF_CHECK_MSG(idx < out.dim, "sparse payload: index " << idx << " >= dim "
                                                          << out.dim);
    APF_CHECK_MSG(first || idx > prev,
                  "sparse payload: indices not strictly ascending at " << idx);
    first = false;
    prev = idx;
  }
  out.values = read_f32_array(reader, count);
  reader.expect_exhausted();
  return out;
}

// ---------------------------------------------------------------------------
// randk
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_randk(const RandkPayload& payload) {
  APF_CHECK(payload.count == payload.values.size());
  APF_CHECK(payload.count <= payload.dim);
  APF_CHECK_MSG(std::isfinite(payload.scale) && payload.scale > 0.f,
                "randk encode: bad scale " << payload.scale);
  ByteWriter writer;
  writer.reserve(24 + payload.values.size() * 4);
  writer.u32(kTagRandk);
  writer.u32(payload.dim);
  writer.u32(payload.count);
  writer.u64(payload.seed);
  writer.f32(payload.scale);
  write_f32_array(writer, payload.values);
  return writer.take();
}

RandkPayload decode_randk(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes, "randk payload");
  check_tag(reader, kTagRandk, "randk payload");
  RandkPayload out;
  out.dim = reader.u32();
  out.count = reader.u32();
  APF_CHECK_MSG(out.count <= out.dim, "randk payload: count " << out.count
                                                              << " > dim "
                                                              << out.dim);
  out.seed = reader.u64();
  out.scale = reader.f32();
  APF_CHECK_MSG(std::isfinite(out.scale) && out.scale > 0.f,
                "randk payload: bad scale " << out.scale);
  out.values = read_f32_array(reader, out.count);
  reader.expect_exhausted();
  return out;
}

// ---------------------------------------------------------------------------
// fp16 / dense
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_fp16_payload(std::span<const float> values) {
  ByteWriter writer;
  writer.reserve(8 + values.size() * 2);
  writer.u32(kTagFp16);
  writer.u32(static_cast<std::uint32_t>(values.size()));
  for (const float v : values) writer.u16(float_to_half(v));
  return writer.take();
}

std::vector<float> decode_fp16_payload(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes, "fp16 payload");
  check_tag(reader, kTagFp16, "fp16 payload");
  const std::uint32_t count = reader.u32();
  // raw() checks the length before `out` is allocated, so a lying count
  // cannot trigger a huge allocation.
  const std::span<const std::uint8_t> halves =
      reader.raw(static_cast<std::size_t>(count) * 2);
  std::vector<float> out(count);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = half_to_float(static_cast<std::uint16_t>(
        halves[2 * i] | static_cast<unsigned>(halves[2 * i + 1]) << 8));
  }
  reader.expect_exhausted();
  return out;
}

std::vector<std::uint8_t> encode_dense(std::span<const float> values) {
  ByteWriter writer;
  writer.reserve(8 + values.size() * 4);
  writer.u32(kTagDense);
  writer.u32(static_cast<std::uint32_t>(values.size()));
  write_f32_array(writer, values);
  return writer.take();
}

std::vector<float> decode_dense(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes, "dense payload");
  check_tag(reader, kTagDense, "dense payload");
  const std::uint32_t count = reader.u32();
  std::vector<float> out = read_f32_array(reader, count);
  reader.expect_exhausted();
  return out;
}

// ---------------------------------------------------------------------------
// qsgd
// ---------------------------------------------------------------------------

float qsgd_value(float norm, std::uint32_t level, unsigned levels,
                 bool negative) {
  const double q = static_cast<double>(norm) * level /
                   static_cast<double>(levels);
  return static_cast<float>(negative ? -q : q);
}

QsgdPayload qsgd_quantize(std::span<const float> update, unsigned bits,
                          Rng& rng) {
  APF_CHECK(bits >= 1 && bits <= 16);
  QsgdPayload out;
  out.dim = static_cast<std::uint32_t>(update.size());
  out.bits = bits;
  out.signs.assign(update.size(), 0);
  out.levels.assign(update.size(), 0);
  double norm_sq = 0.0;
  for (const float v : update) norm_sq += static_cast<double>(v) * v;
  const double norm = std::sqrt(norm_sq);
  out.norm = static_cast<float>(norm);
  if (norm == 0.0) return out;
  const double s = static_cast<double>((1u << bits) - 1);
  for (std::size_t j = 0; j < update.size(); ++j) {
    const double ratio =
        std::fabs(static_cast<double>(update[j])) / norm * s;
    const double lower = std::floor(ratio);
    const double level = lower + (rng.bernoulli(ratio - lower) ? 1.0 : 0.0);
    out.levels[j] = static_cast<std::uint32_t>(level);
    out.signs[j] = update[j] < 0 ? 1 : 0;
  }
  return out;
}

std::vector<float> qsgd_dequantize(const QsgdPayload& payload) {
  const unsigned levels = (1u << payload.bits) - 1;
  std::vector<float> out(payload.dim);
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = qsgd_value(payload.norm, payload.levels[j], levels,
                        payload.signs[j] != 0);
  }
  return out;
}

namespace {

/// LSB-first bit packing shared by the qsgd and terngrad codecs.
class BitWriter {
 public:
  void put(std::uint32_t value, unsigned width) {
    for (unsigned b = 0; b < width; ++b) {
      if (bit_ == 0) bytes_.push_back(0);
      if ((value >> b) & 1u) {
        bytes_.back() |= static_cast<std::uint8_t>(1u << bit_);
      }
      bit_ = (bit_ + 1) % 8;
    }
  }

  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
  unsigned bit_ = 0;
};

class BitReader {
 public:
  BitReader(std::span<const std::uint8_t> bytes, const char* context)
      : bytes_(bytes), context_(context) {}

  std::uint32_t get(unsigned width) {
    std::uint32_t value = 0;
    for (unsigned b = 0; b < width; ++b) {
      const std::size_t byte = cursor_ / 8;
      APF_CHECK_MSG(byte < bytes_.size(), context_ << ": bit stream truncated");
      if ((bytes_[byte] >> (cursor_ % 8)) & 1u) value |= 1u << b;
      ++cursor_;
    }
    return value;
  }

  /// Every bit after the cursor (pad bits) must be zero, so the packing is
  /// bijective and mutated pad bits are rejected instead of ignored.
  void expect_zero_padding() const {
    for (std::size_t c = cursor_; c < bytes_.size() * 8; ++c) {
      APF_CHECK_MSG(((bytes_[c / 8] >> (c % 8)) & 1u) == 0,
                    context_ << ": nonzero pad bit " << c);
    }
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
  const char* context_;
};

std::size_t packed_bytes(std::size_t dim, unsigned bits_per_entry) {
  return (dim * bits_per_entry + 7) / 8;
}

}  // namespace

std::vector<std::uint8_t> encode_qsgd(const QsgdPayload& payload) {
  APF_CHECK(payload.bits >= 1 && payload.bits <= 16);
  APF_CHECK(payload.signs.size() == payload.dim);
  APF_CHECK(payload.levels.size() == payload.dim);
  APF_CHECK_MSG(std::isfinite(payload.norm) && payload.norm >= 0.f,
                "qsgd encode: bad norm " << payload.norm);
  const std::uint32_t max_level = (1u << payload.bits) - 1;
  ByteWriter writer;
  writer.u32(kTagQsgd);
  writer.u32(payload.dim);
  writer.u8(static_cast<std::uint8_t>(payload.bits));
  writer.f32(payload.norm);
  BitWriter bit_writer;
  for (std::size_t j = 0; j < payload.dim; ++j) {
    APF_CHECK(payload.signs[j] <= 1);
    APF_CHECK_MSG(payload.levels[j] <= max_level,
                  "qsgd encode: level " << payload.levels[j] << " > "
                                        << max_level);
    bit_writer.put(payload.signs[j], 1);
    bit_writer.put(payload.levels[j], payload.bits);
  }
  const auto packed = bit_writer.take();
  writer.raw(packed);
  return writer.take();
}

QsgdPayload decode_qsgd(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes, "qsgd payload");
  check_tag(reader, kTagQsgd, "qsgd payload");
  QsgdPayload out;
  out.dim = reader.u32();
  out.bits = reader.u8();
  APF_CHECK_MSG(out.bits >= 1 && out.bits <= 16,
                "qsgd payload: bad bit width " << out.bits);
  out.norm = reader.f32();
  APF_CHECK_MSG(std::isfinite(out.norm) && out.norm >= 0.f,
                "qsgd payload: bad norm " << out.norm);
  const std::size_t expected =
      packed_bytes(out.dim, out.bits + 1);
  APF_CHECK_MSG(reader.remaining() == expected,
                "qsgd payload: " << reader.remaining()
                                 << " packed byte(s), expected " << expected);
  BitReader bit_reader(reader.raw(expected), "qsgd payload");
  out.signs.resize(out.dim);
  out.levels.resize(out.dim);
  for (std::size_t j = 0; j < out.dim; ++j) {
    out.signs[j] = static_cast<std::uint8_t>(bit_reader.get(1));
    out.levels[j] = bit_reader.get(out.bits);
  }
  bit_reader.expect_zero_padding();
  reader.expect_exhausted();
  return out;
}

// ---------------------------------------------------------------------------
// terngrad
// ---------------------------------------------------------------------------

TernPayload terngrad_quantize(std::span<const float> update, Rng& rng) {
  TernPayload out;
  out.dim = static_cast<std::uint32_t>(update.size());
  out.codes.assign(update.size(), 0);
  float scale = 0.f;
  for (const float v : update) scale = std::max(scale, std::fabs(v));
  out.scale = scale;
  if (scale == 0.f) return out;
  for (std::size_t j = 0; j < update.size(); ++j) {
    const double p = std::fabs(update[j]) / scale;
    if (rng.bernoulli(p)) {
      out.codes[j] = update[j] < 0 ? 2 : 1;
    }
  }
  return out;
}

std::vector<float> terngrad_dequantize(const TernPayload& payload) {
  std::vector<float> out(payload.dim, 0.f);
  for (std::size_t j = 0; j < out.size(); ++j) {
    if (payload.codes[j] == 1) out[j] = payload.scale;
    if (payload.codes[j] == 2) out[j] = -payload.scale;
  }
  return out;
}

std::vector<std::uint8_t> encode_terngrad(const TernPayload& payload) {
  APF_CHECK(payload.codes.size() == payload.dim);
  APF_CHECK_MSG(std::isfinite(payload.scale) && payload.scale >= 0.f,
                "terngrad encode: bad scale " << payload.scale);
  ByteWriter writer;
  writer.u32(kTagTern);
  writer.u32(payload.dim);
  writer.f32(payload.scale);
  BitWriter bit_writer;
  for (const std::uint8_t code : payload.codes) {
    APF_CHECK_MSG(code <= 2, "terngrad encode: bad code "
                                 << static_cast<int>(code));
    bit_writer.put(code, 2);
  }
  writer.raw(bit_writer.take());
  return writer.take();
}

TernPayload decode_terngrad(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes, "terngrad payload");
  check_tag(reader, kTagTern, "terngrad payload");
  TernPayload out;
  out.dim = reader.u32();
  out.scale = reader.f32();
  APF_CHECK_MSG(std::isfinite(out.scale) && out.scale >= 0.f,
                "terngrad payload: bad scale " << out.scale);
  const std::size_t expected = packed_bytes(out.dim, 2);
  APF_CHECK_MSG(reader.remaining() == expected,
                "terngrad payload: " << reader.remaining()
                                     << " packed byte(s), expected "
                                     << expected);
  BitReader bit_reader(reader.raw(expected), "terngrad payload");
  out.codes.resize(out.dim);
  for (auto& code : out.codes) {
    code = static_cast<std::uint8_t>(bit_reader.get(2));
    APF_CHECK_MSG(code <= 2, "terngrad payload: invalid code "
                                 << static_cast<int>(code));
  }
  bit_reader.expect_zero_padding();
  reader.expect_exhausted();
  return out;
}

}  // namespace apf::wire
