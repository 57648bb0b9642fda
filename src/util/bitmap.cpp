#include "util/bitmap.h"

#include <bit>

#include "util/error.h"

namespace apf {

namespace {
constexpr std::size_t kBits = 64;
}

Bitmap::Bitmap(std::size_t size, bool value)
    : size_(size), words_((size + kBits - 1) / kBits,
                          value ? ~std::uint64_t{0} : std::uint64_t{0}) {
  mask_tail();
}

void Bitmap::mask_tail() {
  const std::size_t rem = size_ % kBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << rem) - 1;
  }
}

bool Bitmap::get(std::size_t i) const {
  APF_CHECK_MSG(i < size_, "bitmap index " << i << " out of range " << size_);
  return (words_[i / kBits] >> (i % kBits)) & 1ULL;
}

void Bitmap::set(std::size_t i, bool value) {
  APF_CHECK_MSG(i < size_, "bitmap index " << i << " out of range " << size_);
  const std::uint64_t mask = std::uint64_t{1} << (i % kBits);
  if (value) {
    words_[i / kBits] |= mask;
  } else {
    words_[i / kBits] &= ~mask;
  }
}

void Bitmap::fill(bool value) {
  for (auto& w : words_) w = value ? ~std::uint64_t{0} : std::uint64_t{0};
  mask_tail();
}

std::size_t Bitmap::count() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

double Bitmap::fraction() const {
  return size_ == 0 ? 0.0
                    : static_cast<double>(count()) / static_cast<double>(size_);
}

void Bitmap::or_with(const Bitmap& other) {
  APF_CHECK(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

bool Bitmap::operator==(const Bitmap& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

std::vector<std::uint8_t> Bitmap::to_bytes() const {
  std::vector<std::uint8_t> bytes((size_ + 7) / 8, 0);
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return bytes;
}

Bitmap Bitmap::from_bytes(std::size_t size,
                          const std::vector<std::uint8_t>& bytes) {
  APF_CHECK_MSG(bytes.size() == (size + 7) / 8,
                "bitmap payload size mismatch: " << bytes.size());
  const std::size_t rem = size % 8;
  if (rem != 0 && !bytes.empty()) {
    APF_CHECK_MSG((bytes.back() & static_cast<std::uint8_t>(
                                      ~((1u << rem) - 1))) == 0,
                  "bitmap payload has bits set beyond size " << size);
  }
  Bitmap out(size, false);
  for (std::size_t i = 0; i < size; ++i) {
    if (bytes[i / 8] & (1u << (i % 8))) out.set(i, true);
  }
  return out;
}

}  // namespace apf
