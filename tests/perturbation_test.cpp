#include <gtest/gtest.h>

#include <cmath>

#include "core/perturbation.h"
#include "util/rng.h"

namespace apf {
namespace {

using core::EmaPerturbation;
using core::WindowedPerturbation;

TEST(WindowedPerturbation, DirectedMotionGivesOne) {
  WindowedPerturbation p(1, 10);
  for (int i = 0; i < 10; ++i) p.push(std::vector<float>{0.1f});
  EXPECT_DOUBLE_EQ(p.value(0), 1.0);
}

TEST(WindowedPerturbation, PerfectOscillationGivesZero) {
  WindowedPerturbation p(1, 10);
  for (int i = 0; i < 10; ++i) {
    p.push(std::vector<float>{i % 2 == 0 ? 0.1f : -0.1f});
  }
  EXPECT_NEAR(p.value(0), 0.0, 1e-9);
}

TEST(WindowedPerturbation, ZeroUpdatesCountAsStable) {
  WindowedPerturbation p(1, 5);
  for (int i = 0; i < 5; ++i) p.push(std::vector<float>{0.f});
  EXPECT_DOUBLE_EQ(p.value(0), 0.0);
}

TEST(WindowedPerturbation, ValuesAlwaysInUnitInterval) {
  Rng rng(1);
  WindowedPerturbation p(8, 7);
  std::vector<float> u(8);
  for (int step = 0; step < 100; ++step) {
    for (auto& x : u) x = rng.uniform_float(-1.f, 1.f);
    p.push(u);
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_GE(p.value(j), 0.0);
      EXPECT_LE(p.value(j), 1.0);
    }
  }
}

TEST(WindowedPerturbation, SlidingWindowForgetsOldHistory) {
  WindowedPerturbation p(1, 4);
  // Directed for 4, then oscillating for 4: window only sees oscillation.
  for (int i = 0; i < 4; ++i) p.push(std::vector<float>{1.f});
  EXPECT_DOUBLE_EQ(p.value(0), 1.0);
  for (int i = 0; i < 4; ++i) {
    p.push(std::vector<float>{i % 2 == 0 ? 1.f : -1.f});
  }
  EXPECT_NEAR(p.value(0), 0.0, 1e-6);
}

TEST(WindowedPerturbation, WindowFullFlag) {
  WindowedPerturbation p(2, 3);
  EXPECT_FALSE(p.window_full());
  p.push(std::vector<float>{1.f, 1.f});
  p.push(std::vector<float>{1.f, 1.f});
  EXPECT_FALSE(p.window_full());
  p.push(std::vector<float>{1.f, 1.f});
  EXPECT_TRUE(p.window_full());
}

TEST(WindowedPerturbation, MeanAveragesScalars) {
  WindowedPerturbation p(2, 4);
  for (int i = 0; i < 4; ++i) {
    // Scalar 0 directed (P=1), scalar 1 oscillating (P=0).
    p.push(std::vector<float>{1.f, i % 2 == 0 ? 1.f : -1.f});
  }
  EXPECT_NEAR(p.mean(), 0.5, 1e-9);
}

TEST(EmaPerturbation, DirectedMotionNearOne) {
  EmaPerturbation p(1, 0.9);
  for (int i = 0; i < 50; ++i) p.update(std::vector<float>{0.1f});
  EXPECT_NEAR(p.value(0), 1.0, 1e-6);
}

TEST(EmaPerturbation, OscillationDecaysTowardZero) {
  EmaPerturbation p(1, 0.9);
  for (int i = 0; i < 200; ++i) {
    p.update(std::vector<float>{i % 2 == 0 ? 0.1f : -0.1f});
  }
  EXPECT_LT(p.value(0), 0.1);
}

TEST(EmaPerturbation, BoundedInUnitInterval) {
  Rng rng(2);
  EmaPerturbation p(4, 0.95);
  std::vector<float> u(4);
  for (int step = 0; step < 300; ++step) {
    for (auto& x : u) x = rng.uniform_float(-1.f, 1.f);
    p.update(u);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_GE(p.value(j), 0.0);
      EXPECT_LE(p.value(j), 1.0);
    }
  }
}

TEST(EmaPerturbation, SkipMaskLeavesStatisticsUntouched) {
  EmaPerturbation p(2, 0.9);
  p.update(std::vector<float>{1.f, 1.f});
  const double before0 = p.raw_signed()[0];
  const double before1 = p.raw_signed()[1];
  Bitmap skip(2, false);
  skip.set(0, true);
  p.update(std::vector<float>{-5.f, -5.f}, &skip);
  EXPECT_DOUBLE_EQ(p.raw_signed()[0], before0);   // frozen: untouched
  EXPECT_NE(p.raw_signed()[1], before1);          // active: updated
}

TEST(EmaPerturbation, StabilizationDetectedAfterDirectionFlips) {
  // Simulates a parameter that travels then oscillates — P must fall
  // below a loose threshold only in the second phase.
  EmaPerturbation p(1, 0.9);
  for (int i = 0; i < 30; ++i) p.update(std::vector<float>{0.5f});
  EXPECT_GT(p.value(0), 0.9);
  for (int i = 0; i < 100; ++i) {
    p.update(std::vector<float>{i % 2 == 0 ? 0.5f : -0.5f});
  }
  EXPECT_LT(p.value(0), 0.2);
}

}  // namespace
}  // namespace apf
