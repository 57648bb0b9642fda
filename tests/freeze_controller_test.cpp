#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/freeze_controller.h"
#include "util/error.h"

namespace apf {
namespace {

using core::ControlPolicy;
using core::FreezeController;
using core::FreezeControllerOptions;

constexpr auto kAlways = [](std::size_t) { return true; };
constexpr auto kNever = [](std::size_t) { return false; };

TEST(FreezeController, StartsActive) {
  FreezeController c(4);
  EXPECT_EQ(c.mask().count(), 0u);
  EXPECT_DOUBLE_EQ(c.frozen_fraction(), 0.0);
}

TEST(FreezeController, FirstStableCheckFreezesForOnePeriod) {
  FreezeController c(1);
  c.check(kAlways, kAlways);
  EXPECT_TRUE(c.frozen(0));
  EXPECT_EQ(c.raw_periods()[0], 1u);
  EXPECT_EQ(c.remaining(0), 1u);
}

TEST(FreezeController, AimdGrowsAdditively) {
  FreezeController c(1);
  // Stable at every evaluation: periods should go 1, 2, 3, ...
  std::vector<std::uint32_t> observed;
  for (int evaluations = 0; evaluations < 4;) {
    const bool was_active = !c.frozen(0);
    c.check(kAlways, kAlways);
    if (was_active) {
      observed.push_back(c.raw_periods()[0]);
      ++evaluations;
    }
  }
  EXPECT_EQ(observed, (std::vector<std::uint32_t>{1, 2, 3, 4}));
}

TEST(FreezeController, AimdHalvesOnInstability) {
  FreezeController c(1);
  // Grow period to 4 via repeated stable evaluations.
  auto run_until_active = [&](bool stable) {
    // Advance checks until the scalar is evaluated once.
    for (;;) {
      const bool was_active = !c.frozen(0);
      c.check(kAlways, [&](std::size_t) { return stable; });
      if (was_active) return;
    }
  };
  run_until_active(true);   // L=1
  run_until_active(true);   // L=2
  run_until_active(true);   // L=3
  run_until_active(true);   // L=4
  EXPECT_EQ(c.raw_periods()[0], 4u);
  run_until_active(false);  // unstable -> L=2
  EXPECT_EQ(c.raw_periods()[0], 2u);
  run_until_active(false);  // L=1
  EXPECT_EQ(c.raw_periods()[0], 1u);
  run_until_active(false);  // L=0 -> unfrozen immediately
  EXPECT_EQ(c.raw_periods()[0], 0u);
  EXPECT_FALSE(c.frozen(0));
}

TEST(FreezeController, FrozenScalarTicksDownWithoutEvaluation) {
  FreezeController c(1);
  c.check(kAlways, kAlways);  // L=1, remaining=1
  int evaluations = 0;
  // While frozen, the stable() callback must not be called.
  c.check(kAlways, [&](std::size_t) {
    ++evaluations;
    return true;
  });
  EXPECT_EQ(evaluations, 0);
  EXPECT_FALSE(c.frozen(0));  // remaining ticked 1 -> 0
}

TEST(FreezeController, UnevaluableScalarKeepsPeriod) {
  FreezeController c(1);
  c.check(kAlways, kAlways);  // L=1, frozen
  c.check(kAlways, kNever);   // tick down, active
  // Active but not evaluable (e.g. randomly frozen mid-window).
  c.check(kNever, kAlways);
  EXPECT_EQ(c.raw_periods()[0], 1u);
  EXPECT_FALSE(c.frozen(0));
}

TEST(FreezeController, NeverStableStaysActive) {
  FreezeController c(8);
  for (int i = 0; i < 20; ++i) c.check(kAlways, kNever);
  EXPECT_EQ(c.mask().count(), 0u);
  for (std::size_t j = 0; j < 8; ++j) EXPECT_EQ(c.raw_periods()[j], 0u);
}

TEST(FreezeController, PureAdditiveDecreasesByStep) {
  FreezeControllerOptions opt;
  opt.policy = ControlPolicy::kPureAdditive;
  FreezeController c(1, opt);
  auto run_until_active = [&](bool stable) {
    for (;;) {
      const bool was_active = !c.frozen(0);
      c.check(kAlways, [&](std::size_t) { return stable; });
      if (was_active) return;
    }
  };
  run_until_active(true);   // 1
  run_until_active(true);   // 2
  run_until_active(true);   // 3
  EXPECT_EQ(c.raw_periods()[0], 3u);
  run_until_active(false);  // 2 (additive decrease)
  EXPECT_EQ(c.raw_periods()[0], 2u);
}

TEST(FreezeController, PureMultiplicativeDoubles) {
  FreezeControllerOptions opt;
  opt.policy = ControlPolicy::kPureMultiplicative;
  FreezeController c(1, opt);
  auto run_until_active = [&](bool stable) {
    for (;;) {
      const bool was_active = !c.frozen(0);
      c.check(kAlways, [&](std::size_t) { return stable; });
      if (was_active) return;
    }
  };
  run_until_active(true);  // max(1, 0*2) = 1
  EXPECT_EQ(c.raw_periods()[0], 1u);
  run_until_active(true);  // 2
  EXPECT_EQ(c.raw_periods()[0], 2u);
  run_until_active(true);  // 4
  EXPECT_EQ(c.raw_periods()[0], 4u);
  run_until_active(false);  // 2
  EXPECT_EQ(c.raw_periods()[0], 2u);
}

TEST(FreezeController, FixedPolicyUsesConstantPeriod) {
  FreezeControllerOptions opt;
  opt.policy = ControlPolicy::kFixed;
  opt.fixed_period = 10;
  FreezeController c(1, opt);
  c.check(kAlways, kAlways);
  EXPECT_EQ(c.raw_periods()[0], 10u);
  EXPECT_EQ(c.remaining(0), 10u);
  // Ten ticks later it becomes active again.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(c.frozen(0));
    c.check(kAlways, kNever);
  }
  EXPECT_FALSE(c.frozen(0));
}

TEST(FreezeController, MaxPeriodCapped) {
  FreezeControllerOptions opt;
  opt.policy = ControlPolicy::kPureMultiplicative;
  opt.max_period = 8;
  FreezeController c(1, opt);
  for (int i = 0; i < 200; ++i) c.check(kAlways, kAlways);
  EXPECT_LE(c.raw_periods()[0], 8u);
}

TEST(FreezeController, IndependentScalars) {
  FreezeController c(2);
  // Scalar 0 stable, scalar 1 not.
  c.check(kAlways, [](std::size_t j) { return j == 0; });
  EXPECT_TRUE(c.frozen(0));
  EXPECT_FALSE(c.frozen(1));
  EXPECT_DOUBLE_EQ(c.frozen_fraction(), 0.5);
}

TEST(FreezeController, MaskMatchesFrozenPredicate) {
  FreezeController c(16);
  c.check(kAlways, [](std::size_t j) { return j % 3 == 0; });
  for (std::size_t j = 0; j < 16; ++j) {
    EXPECT_EQ(c.mask().get(j), c.frozen(j));
  }
}

TEST(FreezeController, NullPredicateThrowsBeforeAnyChange) {
  FreezeController c(3);
  c.check(kAlways, kAlways);
  const std::vector<std::uint32_t> periods(c.raw_periods().begin(),
                                           c.raw_periods().end());
  const std::function<bool(std::size_t)> empty;
  bool (*const null_fn)(std::size_t) = nullptr;
  EXPECT_THROW(c.check(empty, kAlways), Error);
  EXPECT_THROW(c.check(kAlways, empty), Error);
  EXPECT_THROW(c.check(nullptr, kAlways), Error);
  EXPECT_THROW(c.check(kAlways, null_fn), Error);
  EXPECT_EQ(std::vector<std::uint32_t>(c.raw_periods().begin(),
                                       c.raw_periods().end()),
            periods);
  EXPECT_EQ(c.mask().count(), 3u);
  // A non-null std::function still works.
  const std::function<bool(std::size_t)> always = kAlways;
  c.check(always, always);
  EXPECT_EQ(c.remaining(0), 0u);
}

}  // namespace
}  // namespace apf
