// Compact dynamic bitset used for per-scalar parameter freezing masks.
//
// The paper's APF_Manager keeps a bitmap M_is_frozen with one bit per scalar
// parameter (§6.2). This class provides that bitmap plus the set-algebra and
// counting operations the manager and the benchmarks need. Storage is one
// bit per entry (std::uint64_t words), so masks for multi-million-parameter
// models stay small.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace apf {

class Bitmap {
 public:
  Bitmap() = default;

  /// Creates a bitmap of `size` bits, all set to `value`.
  explicit Bitmap(std::size_t size, bool value = false);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);

  /// Read-only view of the backing words, for loops that walk the mask a
  /// word at a time instead of calling get() per bit. Bit i lives at bit
  /// (i % 64) of words()[i / 64]; there are (size() + 63) / 64 words, and
  /// the bits of the last word at or beyond size() are always clear.
  std::span<const std::uint64_t> words() const { return words_; }

  /// Sets every bit to `value`.
  void fill(bool value);

  /// Number of set bits.
  std::size_t count() const;

  /// count() / size(); 0 for an empty bitmap.
  double fraction() const;

  /// Element-wise OR with another bitmap of the same size.
  void or_with(const Bitmap& other);

  /// Packs the bits into bytes (little-endian within each byte).
  std::vector<std::uint8_t> to_bytes() const;

  /// Rebuilds a bitmap of `size` bits from to_bytes() output.
  static Bitmap from_bytes(std::size_t size,
                           const std::vector<std::uint8_t>& bytes);

  bool operator==(const Bitmap& other) const;
  bool operator!=(const Bitmap& other) const { return !(*this == other); }

 private:
  void mask_tail();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace apf
