// Pins the semantics of the strong id/byte types in util/ids.h: explicit
// construction only, no cross-type conversion (compile-time, via
// static_assert), ordered/hashable ids with no arithmetic, and ByteCount's
// additive-only discipline (overflow-checked addition, exact-double exit).
// The strong-type rule of tools/apf_lint enforces that transport/, wire/
// and fl/ actually use these types; this test enforces what the types mean.
#include "util/ids.h"

#include <cstdint>
#include <limits>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "util/error.h"

namespace apf::util {
namespace {

// ---- Compile-time contract: ids never mix. ------------------------------

// No conversions between id types, in either direction, nor via ByteCount.
static_assert(!std::is_convertible_v<ClientId, RoundId>);
static_assert(!std::is_convertible_v<RoundId, ClientId>);
static_assert(!std::is_convertible_v<ClientId, SeqNo>);
static_assert(!std::is_convertible_v<SeqNo, RoundId>);
static_assert(!std::is_convertible_v<ClientId, ByteCount>);
static_assert(!std::is_convertible_v<ByteCount, ClientId>);
static_assert(!std::is_constructible_v<RoundId, ClientId>);
static_assert(!std::is_constructible_v<ClientId, RoundId>);
static_assert(!std::is_constructible_v<SeqNo, ClientId>);
static_assert(!std::is_constructible_v<ByteCount, RoundId>);

// No implicit construction from raw integers (explicit only) and no decay
// back to integers: an id is a name, not a number.
static_assert(!std::is_convertible_v<std::uint64_t, ClientId>);
static_assert(!std::is_convertible_v<std::uint64_t, RoundId>);
static_assert(!std::is_convertible_v<std::uint64_t, ByteCount>);
static_assert(!std::is_convertible_v<ClientId, std::uint64_t>);
static_assert(!std::is_convertible_v<ByteCount, std::uint64_t>);
static_assert(std::is_constructible_v<ClientId, std::uint64_t>);

// Equality never crosses types.
template <typename A, typename B, typename = void>
struct comparable : std::false_type {};
template <typename A, typename B>
struct comparable<A, B,
                  std::void_t<decltype(std::declval<A>() ==
                                       std::declval<B>())>>
    : std::true_type {};
static_assert(comparable<ClientId, ClientId>::value);
static_assert(!comparable<ClientId, RoundId>::value);
static_assert(!comparable<ByteCount, ClientId>::value);
static_assert(!comparable<ClientId, std::uint64_t>::value);

// Ids support no arithmetic; ByteCount adds but never subtracts/multiplies.
template <typename A, typename B, typename = void>
struct addable : std::false_type {};
template <typename A, typename B>
struct addable<A, B,
               std::void_t<decltype(std::declval<A>() + std::declval<B>())>>
    : std::true_type {};
template <typename A, typename B, typename = void>
struct subtractable : std::false_type {};
template <typename A, typename B>
struct subtractable<A, B,
                    std::void_t<decltype(std::declval<A>() -
                                         std::declval<B>())>>
    : std::true_type {};
static_assert(!addable<ClientId, ClientId>::value);
static_assert(!addable<RoundId, RoundId>::value);
static_assert(addable<ByteCount, ByteCount>::value);
static_assert(!subtractable<ByteCount, ByteCount>::value);
static_assert(!subtractable<ClientId, ClientId>::value);

// ---- Runtime semantics. --------------------------------------------------

TEST(IdsTest, DefaultAndExplicitConstruction) {
  EXPECT_EQ(ClientId().value(), 0u);
  EXPECT_EQ(ClientId(7).value(), 7u);
  EXPECT_EQ(RoundId(1).value(), 1u);
  EXPECT_EQ(SeqNo().value(), 0u);
}

TEST(IdsTest, OrderingAndSuccessors) {
  EXPECT_LT(ClientId(1), ClientId(2));
  EXPECT_EQ(next_seq(SeqNo(0)), SeqNo(1));
  EXPECT_GT(next_seq(SeqNo(0)), SeqNo(0));
}

TEST(IdsTest, StreamInsertionPrintsRawValue) {
  std::ostringstream oss;
  oss << ClientId(12) << "/" << RoundId(3) << "/" << ByteCount(456);
  EXPECT_EQ(oss.str(), "12/3/456");
}

TEST(IdsTest, HashableAsUnorderedKeys) {
  std::unordered_map<ClientId, int> by_client;
  by_client[ClientId(5)] = 50;
  by_client[ClientId(6)] = 60;
  EXPECT_EQ(by_client.at(ClientId(5)), 50);
  std::unordered_set<ByteCount> sizes{ByteCount(1), ByteCount(1),
                                      ByteCount(2)};
  EXPECT_EQ(sizes.size(), 2u);
}

TEST(ByteCountTest, AdditionAccumulatesExactly) {
  ByteCount total;
  total += ByteCount(3);
  total += ByteCount(4);
  EXPECT_EQ(total, ByteCount(7));
  EXPECT_EQ(ByteCount(10) + ByteCount(5), ByteCount(15));
}

TEST(ByteCountTest, AdditionOverflowThrows) {
  const ByteCount max(std::numeric_limits<std::uint64_t>::max());
  ByteCount total = max;
  EXPECT_THROW(total += ByteCount(1), Error);
  EXPECT_THROW(max + ByteCount(1), Error);
  // The failed += must not have corrupted the accumulator.
  EXPECT_EQ(total, max);
}

TEST(ByteCountTest, ToDoubleIsExactBelowTwoPow53) {
  EXPECT_EQ(ByteCount(0).to_double(), 0.0);
  const std::uint64_t big = (std::uint64_t{1} << 53) - 1;
  EXPECT_EQ(ByteCount(big).to_double(), static_cast<double>(big));
  EXPECT_EQ(static_cast<std::uint64_t>(ByteCount(big).to_double()), big);
}

TEST(ByteCountTest, ToDoubleRefusesInexactRange) {
  EXPECT_THROW(ByteCount(std::uint64_t{1} << 53).to_double(), Error);
  EXPECT_THROW(
      ByteCount(std::numeric_limits<std::uint64_t>::max()).to_double(),
      Error);
}

}  // namespace
}  // namespace apf::util
