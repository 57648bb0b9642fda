// Strong identifier and byte-count types for the wire/transport/fl layers.
//
// The transport stack juggles four integer-shaped quantities that must never
// mix: client ids (which link a frame travels on), round ids (which barrier
// it belongs to), per-link sequence numbers (send order), and byte counts
// (measured payload sizes). All four used to be bare std::uint64_t/size_t,
// so a swapped argument compiled silently. These newtypes make every mix-up
// a compile error, and the strong-type rule of tools/apf_lint bans new
// bare-integer id/byte parameters from reappearing in transport/, wire/ and
// fl/ (docs/STATIC_ANALYSIS.md "Static analyzer").
//
// Design points:
//   - Construction is always explicit; there are NO conversions between the
//     id types (ClientId(3) != RoundId(3) does not even compile).
//   - Ids are ordered and hashable (std::map keys, std::hash specializations
//     below) but support no arithmetic: an id is a name, not a number.
//   - ByteCount is additive-only: counts add up (operator+ / +=, overflow-
//     checked) but cannot be subtracted or multiplied — "bytes sent minus
//     bytes received" has no meaning on the measured wire path. Scaling and
//     averaging happen in double, via to_double(), exactly at the boundary
//     where pricing/amortization math starts (NetworkModel, RoundRecord).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>

#include "util/error.h"

namespace apf::util {

namespace detail {

/// Shared newtype skeleton: an explicit-construction, totally-ordered,
/// streamable wrapper over uint64 with no implicit conversions. `Tag` makes
/// each instantiation a distinct type.
template <typename Tag>
class Ordinal {
 public:
  constexpr Ordinal() = default;
  constexpr explicit Ordinal(std::uint64_t value) : value_(value) {}

  constexpr std::uint64_t value() const { return value_; }

  friend constexpr bool operator==(Ordinal, Ordinal) = default;
  friend constexpr auto operator<=>(Ordinal, Ordinal) = default;

  friend std::ostream& operator<<(std::ostream& os, Ordinal id) {
    return os << id.value_;
  }

 private:
  std::uint64_t value_ = 0;
};

}  // namespace detail

/// The link a frame travels on: one id per (simulated) edge device.
using ClientId = detail::Ordinal<struct ClientIdTag>;

/// A 1-based communication round (0 = "no round" sentinel).
using RoundId = detail::Ordinal<struct RoundIdTag>;

/// Per-link send order, assigned by the bus; starts at 0 each round.
using SeqNo = detail::Ordinal<struct SeqNoTag>;

/// The sequence number after `seq`.
constexpr SeqNo next_seq(SeqNo seq) { return SeqNo(seq.value() + 1); }

/// A measured payload size. Additive-only (see the header comment): counts
/// accumulate with overflow-checked +/+=, compare among themselves, and exit
/// to double exactly once at the pricing/amortization boundary.
class ByteCount {
 public:
  constexpr ByteCount() = default;
  constexpr explicit ByteCount(std::uint64_t value) : value_(value) {}

  constexpr std::uint64_t value() const { return value_; }

  /// The double the pricing math consumes. Every measured count in this
  /// codebase is far below 2^53, so the conversion is exact; the check keeps
  /// that assumption honest.
  double to_double() const {
    APF_CHECK_MSG(value_ < (std::uint64_t{1} << 53),
                  "ByteCount " << value_ << " not exactly representable as "
                               << "double");
    return static_cast<double>(value_);
  }

  ByteCount& operator+=(ByteCount other) {
    APF_CHECK_MSG(value_ + other.value_ >= value_,
                  "ByteCount overflow: " << value_ << " + " << other.value_);
    value_ += other.value_;
    return *this;
  }

  friend ByteCount operator+(ByteCount lhs, ByteCount rhs) {
    lhs += rhs;
    return lhs;
  }

  friend constexpr bool operator==(ByteCount, ByteCount) = default;
  friend constexpr auto operator<=>(ByteCount, ByteCount) = default;

  friend std::ostream& operator<<(std::ostream& os, ByteCount bytes) {
    return os << bytes.value_;
  }

 private:
  std::uint64_t value_ = 0;
};

}  // namespace apf::util

namespace std {

template <typename Tag>
struct hash<apf::util::detail::Ordinal<Tag>> {
  std::size_t operator()(apf::util::detail::Ordinal<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};

template <>
struct hash<apf::util::ByteCount> {
  std::size_t operator()(apf::util::ByteCount bytes) const noexcept {
    return std::hash<std::uint64_t>{}(bytes.value());
  }
};

}  // namespace std
