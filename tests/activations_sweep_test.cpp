// Exhaustive checks of the span activation kernels: for every one of the
// 2^32 float bit patterns, apf::tanh must give libm's tanhf, apf::exp
// libm's expf and apf::sigmoid 1.f / (1.f + expf(-x)), bit for bit (any NaN
// for a NaN). The patterns are split into blocks across the compute pool's
// lanes; each lane counts its own mismatches. Tens of seconds per kernel on
// 4 lanes of a 2 GHz x86-64 core in a release build, so ctest labels it
// `slow`; CI also runs it with glibc's non-FMA expf and the baseline
// vectors (GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/activations.h"
#include "util/thread_pool.h"

namespace apf {
namespace {

constexpr std::uint64_t kPatterns = std::uint64_t{1} << 32;
constexpr std::uint64_t kBlock = std::uint64_t{1} << 16;

// Runs kernel over all 2^32 float bit patterns and expects ref's bits for
// each (any NaN for a NaN).
template <typename Kernel, typename Ref>
void expect_all_floats_match(const Kernel& kernel, const Ref& ref) {
  constexpr std::uint64_t blocks = kPatterns / kBlock;
  std::vector<std::uint64_t> mismatches(blocks, 0);
  std::vector<std::uint32_t> first_bad(blocks, 0);
  util::compute_pool().parallel_for(blocks, [&](std::size_t b) {
    std::vector<float> x(kBlock), y(kBlock);
    for (std::uint64_t i = 0; i < kBlock; ++i)
      x[i] = std::bit_cast<float>(static_cast<std::uint32_t>(b * kBlock + i));
    kernel(x, y);
    for (std::uint64_t i = 0; i < kBlock; ++i) {
      const float want = ref(x[i]);
      const bool same =
          std::isnan(want)
              ? std::isnan(y[i])
              : std::bit_cast<std::uint32_t>(y[i]) ==
                    std::bit_cast<std::uint32_t>(want);
      if (!same && mismatches[b]++ == 0)
        first_bad[b] = static_cast<std::uint32_t>(b * kBlock + i);
    }
  });
  std::uint64_t total = 0;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    if (mismatches[b] != 0 && total == 0) {
      ADD_FAILURE() << "first mismatch at x bits 0x" << std::hex
                    << first_bad[b];
    }
    total += mismatches[b];
  }
  EXPECT_EQ(total, 0u);
}

TEST(TanhSweep, AllFloatsMatchLibmBitForBit) {
  expect_all_floats_match(
      [](std::span<const float> x, std::span<float> y) { apf::tanh(x, y); },
      [](float x) { return std::tanh(x); });
}

TEST(ExpSweep, AllFloatsMatchLibmBitForBit) {
  expect_all_floats_match(
      [](std::span<const float> x, std::span<float> y) { apf::exp(x, y); },
      [](float x) { return std::exp(x); });
}

TEST(SigmoidSweep, AllFloatsMatchLibmFormulaBitForBit) {
  expect_all_floats_match(
      [](std::span<const float> x, std::span<float> y) { apf::sigmoid(x, y); },
      [](float x) { return 1.f / (1.f + std::exp(-x)); });
}

}  // namespace
}  // namespace apf
