// Property-style parameterized sweeps (TEST_P) over the library's key
// invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/apf_manager.h"
#include "core/freeze_controller.h"
#include "core/perturbation.h"
#include "data/partition.h"
#include "fl/sync_strategy.h"
#include "util/bitmap.h"
#include "util/rng.h"
#include "wire/quantize.h"

namespace apf {
namespace {

// ---------------------------------------------------------------------------
// Effective perturbation stays in [0, 1] and orders directed before noisy
// before oscillating trajectories — for any EMA coefficient.
// ---------------------------------------------------------------------------

class PerturbationAlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(PerturbationAlphaSweep, BoundsAndOrdering) {
  const double alpha = GetParam();
  core::EmaPerturbation p(3, alpha);
  Rng rng(99);
  for (int i = 0; i < 400; ++i) {
    const float directed = 0.1f;
    const float noisy = static_cast<float>(rng.normal(0.02, 0.1));
    const float oscillating = i % 2 == 0 ? 0.1f : -0.1f;
    p.update(std::vector<float>{directed, noisy, oscillating});
    for (std::size_t j = 0; j < 3; ++j) {
      ASSERT_GE(p.value(j), 0.0);
      ASSERT_LE(p.value(j), 1.0);
    }
  }
  EXPECT_GT(p.value(0), p.value(1));
  EXPECT_GT(p.value(1), p.value(2));
}

INSTANTIATE_TEST_SUITE_P(Alphas, PerturbationAlphaSweep,
                         ::testing::Values(0.5, 0.8, 0.9, 0.95, 0.99));

// ---------------------------------------------------------------------------
// Windowed perturbation matches a brute-force recomputation for any window.
// ---------------------------------------------------------------------------

class WindowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowSweep, RingBufferMatchesBruteForce) {
  const std::size_t window = GetParam();
  core::WindowedPerturbation p(2, window);
  Rng rng(7 + window);
  std::vector<std::vector<float>> history;
  for (int step = 0; step < 60; ++step) {
    std::vector<float> u = {rng.uniform_float(-1.f, 1.f),
                            rng.uniform_float(-1.f, 1.f)};
    history.push_back(u);
    p.push(u);
    const std::size_t start =
        history.size() > window ? history.size() - window : 0;
    for (std::size_t j = 0; j < 2; ++j) {
      double sum = 0.0, sum_abs = 0.0;
      for (std::size_t i = start; i < history.size(); ++i) {
        sum += history[i][j];
        sum_abs += std::fabs(history[i][j]);
      }
      const double expect = sum_abs < 1e-12 ? 0.0 : std::fabs(sum) / sum_abs;
      ASSERT_NEAR(p.value(j), std::min(expect, 1.0), 1e-5)
          << "step " << step << " scalar " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 32));

// ---------------------------------------------------------------------------
// FreezeController invariants hold under random verdict streams for every
// control policy: remaining <= period bound, mask consistency, and activity
// after long instability.
// ---------------------------------------------------------------------------

class PolicySweep : public ::testing::TestWithParam<core::ControlPolicy> {};

TEST_P(PolicySweep, InvariantsUnderRandomVerdicts) {
  core::FreezeControllerOptions opt;
  opt.policy = GetParam();
  // Cap the period so the trailing unstable streak can drain even the
  // exponentially-growing pure-multiplicative policy.
  opt.max_period = 32;
  core::FreezeController c(32, opt);
  Rng rng(1234);
  for (int check = 0; check < 300; ++check) {
    c.check([](std::size_t) { return true; },
            [&](std::size_t) { return rng.bernoulli(0.6); });
    for (std::size_t j = 0; j < 32; ++j) {
      ASSERT_LE(c.remaining(j), c.raw_periods()[j]);
      ASSERT_EQ(c.mask().get(j), c.frozen(j));
      ASSERT_LE(c.raw_periods()[j], opt.max_period);
    }
  }
  // A long unstable streak must eventually unfreeze everything.
  for (int check = 0; check < 200; ++check) {
    c.check([](std::size_t) { return true; },
            [](std::size_t) { return false; });
  }
  EXPECT_EQ(c.mask().count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicySweep,
                         ::testing::Values(core::ControlPolicy::kAimd,
                                           core::ControlPolicy::kPureAdditive,
                                           core::ControlPolicy::kPureMultiplicative,
                                           core::ControlPolicy::kFixed));

// ---------------------------------------------------------------------------
// Dirichlet partition covers every sample exactly once for any alpha and
// client count.
// ---------------------------------------------------------------------------

struct PartitionCase {
  double alpha;
  std::size_t clients;
};

class PartitionSweep : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionSweep, ExactCover) {
  const auto param = GetParam();
  Rng rng(31337);
  std::vector<std::size_t> labels(301);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 7;
  const auto part =
      data::dirichlet_partition(labels, 7, param.clients, param.alpha, rng);
  ASSERT_EQ(part.size(), param.clients);
  std::set<std::size_t> seen;
  for (const auto& client : part) {
    ASSERT_FALSE(client.empty());
    for (std::size_t i : client) {
      ASSERT_TRUE(seen.insert(i).second) << "sample " << i << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), labels.size());
}

INSTANTIATE_TEST_SUITE_P(
    AlphasAndClients, PartitionSweep,
    ::testing::Values(PartitionCase{0.05, 3}, PartitionCase{0.1, 10},
                      PartitionCase{1.0, 5}, PartitionCase{1.0, 50},
                      PartitionCase{10.0, 8}, PartitionCase{100.0, 2}));

// ---------------------------------------------------------------------------
// fp16 round trip: |decode(encode(x)) - x| <= 2^-11 |x| for normal halves,
// across magnitudes.
// ---------------------------------------------------------------------------

class Fp16MagnitudeSweep : public ::testing::TestWithParam<float> {};

TEST_P(Fp16MagnitudeSweep, RelativeErrorWithinHalfUlp) {
  const float magnitude = GetParam();
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const float v = rng.uniform_float(-magnitude, magnitude);
    const float r =
        wire::half_to_float(wire::float_to_half(v));
    ASSERT_NEAR(r, v, std::fabs(v) * (1.0f / 2048.f) + 6.2e-5f) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, Fp16MagnitudeSweep,
                         ::testing::Values(1e-3f, 1e-1f, 1.f, 10.f, 1e3f,
                                           6e4f));

// ---------------------------------------------------------------------------
// APF preserves the frozen-scalar bit pattern for any checking cadence:
// after every synchronize, clients agree bit-for-bit.
// ---------------------------------------------------------------------------

class CadenceSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CadenceSweep, ClientsAlwaysAgree) {
  core::ApfOptions opt;
  opt.check_every_rounds = GetParam();
  opt.ema_alpha = 0.8;
  opt.stability_threshold = 0.3;
  core::ApfManager manager(opt);
  const std::size_t dim = 24;
  std::vector<float> init(dim, 0.f);
  manager.init(init, 3);
  std::vector<std::vector<float>> params(3, init);
  Rng rng(404);
  for (std::size_t k = 1; k <= 50; ++k) {
    const auto global = manager.global_params();
    for (auto& client : params) {
      for (std::size_t j = 0; j < dim; ++j) {
        client[j] = global[j] + rng.uniform_float(-0.1f, 0.1f);
        if (manager.frozen_mask()->get(j)) {
          client[j] = manager.frozen_anchor()[j];
        }
      }
    }
    manager.synchronize(fl::RoundId(k), params, {1.0, 1.0, 1.0});
    ASSERT_EQ(params[0], params[1]);
    ASSERT_EQ(params[1], params[2]);
    // Global equals what clients hold.
    for (std::size_t j = 0; j < dim; ++j) {
      ASSERT_EQ(params[0][j], manager.global_params()[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cadences, CadenceSweep,
                         ::testing::Values(1, 2, 3, 5, 10));

// ---------------------------------------------------------------------------
// Bitmap operations agree with a reference std::vector<bool> model under a
// random operation stream, for sizes crossing word boundaries.
// ---------------------------------------------------------------------------

class BitmapSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitmapSizeSweep, MatchesReferenceModel) {
  const std::size_t size = GetParam();
  Bitmap bitmap(size, false);
  std::vector<bool> model(size, false);
  Rng rng(2024);
  for (int op = 0; op < 500; ++op) {
    const std::size_t i = rng.uniform_int(std::uint64_t{size});
    const bool v = rng.bernoulli(0.5);
    bitmap.set(i, v);
    model[i] = v;
  }
  std::size_t expect_count = 0;
  for (bool b : model) expect_count += b;
  ASSERT_EQ(bitmap.count(), expect_count);
  for (std::size_t i = 0; i < size; ++i) {
    ASSERT_EQ(bitmap.get(i), model[i]);
  }
  bitmap.fill(true);
  ASSERT_EQ(bitmap.count(), size);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitmapSizeSweep,
                         ::testing::Values(1, 63, 64, 65, 127, 128, 1000));

}  // namespace
}  // namespace apf
