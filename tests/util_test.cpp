#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "util/bitmap.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace apf {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_int(std::uint64_t{17}), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(std::int64_t{-5}, std::int64_t{5});
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(std::uint64_t{4}));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(std::uint64_t{0}), Error);
}

TEST(Rng, NormalMomentsReasonable) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.add(rng.normal());
  EXPECT_NEAR(stat.mean(), 0.0, 0.02);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalScaled) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stat.mean(), 3.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GammaMeanEqualsShape) {
  Rng rng(19);
  for (double shape : {0.5, 1.0, 2.0, 7.5}) {
    RunningStat stat;
    for (int i = 0; i < 30000; ++i) stat.add(rng.gamma(shape));
    EXPECT_NEAR(stat.mean(), shape, shape * 0.05) << "shape=" << shape;
  }
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(23);
  for (double alpha : {0.1, 1.0, 10.0}) {
    const auto v = rng.dirichlet(alpha, 8);
    ASSERT_EQ(v.size(), 8u);
    double sum = 0.0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Rng, DirichletSmallAlphaIsPeaky) {
  Rng rng(29);
  // alpha = 0.05 should concentrate nearly all mass on one component.
  double max_component_mean = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto v = rng.dirichlet(0.05, 10);
    max_component_mean += *std::max_element(v.begin(), v.end());
  }
  max_component_mean /= 200.0;
  EXPECT_GT(max_component_mean, 0.7);
}

TEST(Rng, DirichletLargeAlphaIsFlat) {
  Rng rng(31);
  double max_component_mean = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto v = rng.dirichlet(100.0, 10);
    max_component_mean += *std::max_element(v.begin(), v.end());
  }
  max_component_mean /= 200.0;
  EXPECT_LT(max_component_mean, 0.2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(55);
  Rng child = a.split();
  // Child and parent produce different streams.
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Bitmap, DefaultEmpty) {
  Bitmap b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.fraction(), 0.0);
}

TEST(Bitmap, SetGetCount) {
  Bitmap b(130, false);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  b.set(0, true);
  b.set(64, true);
  b.set(129, true);
  EXPECT_TRUE(b.get(0));
  EXPECT_TRUE(b.get(64));
  EXPECT_TRUE(b.get(129));
  EXPECT_FALSE(b.get(1));
  EXPECT_EQ(b.count(), 3u);
  b.set(64, false);
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitmap, FillTrueMasksTail) {
  Bitmap b(70, true);
  EXPECT_EQ(b.count(), 70u);
  EXPECT_DOUBLE_EQ(b.fraction(), 1.0);
  b.fill(false);
  EXPECT_EQ(b.count(), 0u);
  b.fill(true);
  EXPECT_EQ(b.count(), 70u);
}

TEST(Bitmap, OrSemantics) {
  Bitmap a(10, false), b(10, false);
  a.set(1, true);
  a.set(2, true);
  b.set(2, true);
  b.set(3, true);
  Bitmap o = a;
  o.or_with(b);
  EXPECT_EQ(o.count(), 3u);
  EXPECT_TRUE(o.get(1) && o.get(2) && o.get(3));
}

TEST(Bitmap, EqualityAndByteSize) {
  Bitmap a(65, false), b(65, false);
  EXPECT_EQ(a, b);
  b.set(64, true);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.to_bytes().size(), 9u);  // 65 bits on the wire
}

TEST(Bitmap, OutOfRangeThrows) {
  Bitmap b(10, false);
  EXPECT_THROW(b.get(10), Error);
  EXPECT_THROW(b.set(10, true), Error);
}

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 95), 42.0);
}

TEST(BestEver, CumulativeMax) {
  const auto out = best_ever({0.1, 0.3, 0.2, 0.5, 0.4});
  const std::vector<double> expect = {0.1, 0.3, 0.3, 0.5, 0.5};
  EXPECT_EQ(out, expect);
}

TEST(MeanOf, BasicAndEmpty) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(TablePrinter, RendersAlignedRows) {
  TablePrinter t({"Model", "Acc"});
  t.add_row({"LeNet-5", "0.666"});
  const std::string s = t.render();
  EXPECT_NE(s.find("LeNet-5"), std::string::npos);
  EXPECT_NE(s.find("Acc"), std::string::npos);
}

TEST(TablePrinter, RowArityChecked) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TablePrinter, Formatting) {
  EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::fmt_percent(0.633), "63.3%");
  EXPECT_EQ(TablePrinter::fmt_bytes(2.5 * 1024 * 1024), "2.50 MB");
}

}  // namespace
}  // namespace apf
