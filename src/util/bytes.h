// Bounds-checked little-endian byte (de)serialization primitives.
//
// Every wire format in the library (masked updates, compression codec
// payloads) is assembled with ByteWriter and parsed with ByteReader. The
// reader APF_CHECKs every read against the remaining buffer, so a truncated
// or malformed payload raises apf::Error with context instead of reading out
// of bounds. Encoding is explicit little-endian byte assembly — independent
// of host endianness and free of type-punning UB — so client and server
// agree on wire bytes across platforms.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace apf {

/// Appends fixed-width little-endian fields to a growing byte vector.
class ByteWriter {
 public:
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

  /// Pre-sizes the buffer for `n` bytes in total, so an encoder that knows
  /// its frame size up front grows the vector once instead of doubling.
  void reserve(std::size_t n) { bytes_.reserve(n); }

  void u8(std::uint8_t v) { bytes_.push_back(v); }

  void u16(std::uint16_t v) {
    bytes_.push_back(static_cast<std::uint8_t>(v & 0xFFu));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFFu));
    }
  }

  void u64(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      bytes_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFFu));
    }
  }

  /// Bit-exact float transport (NaN payloads included).
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }

  void raw(std::span<const std::uint8_t> data) {
    // Element-wise append instead of range insert: GCC 12's -O3 inliner
    // emits a spurious -Wstringop-overflow for the memmove otherwise.
    bytes_.reserve(bytes_.size() + data.size());
    for (const std::uint8_t b : data) bytes_.push_back(b);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Consumes fixed-width little-endian fields from a byte span. Every read
/// validates the remaining length first; a short buffer raises apf::Error
/// naming the context, never an out-of-bounds read.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes,
                      const char* context = "payload")
      : bytes_(bytes), context_(context) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

  /// Raises apf::Error unless at least `n` bytes remain.
  void require(std::size_t n) const {
    APF_CHECK_MSG(n <= remaining(), context_ << ": truncated buffer — need "
                                             << n << " more byte(s), have "
                                             << remaining());
  }

  /// Raises apf::Error unless the buffer was consumed exactly.
  void expect_exhausted() const {
    APF_CHECK_MSG(exhausted(), context_ << ": " << remaining()
                                        << " trailing byte(s) after payload");
  }

  std::uint8_t u8() {
    require(1);
    return bytes_[pos_++];
  }

  std::uint16_t u16() {
    require(2);
    std::uint16_t v = 0;
    v |= static_cast<std::uint16_t>(bytes_[pos_]);
    v |= static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ + static_cast<std::size_t>(
                                                        i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(
                                                        i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  float f32() { return std::bit_cast<float>(u32()); }

  std::span<const std::uint8_t> raw(std::size_t n) {
    require(n);
    const auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  const char* context_;
};

}  // namespace apf
