// Universal invariants every SyncStrategy must satisfy, swept over the whole
// strategy zoo (TEST_P). The harness drives strategies directly with a
// synthetic drift-and-oscillate workload, honoring the runner's pinning
// contract for freezing strategies.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <ostream>

#include "compress/cmfl.h"
#include "compress/codecs.h"
#include "compress/gaia.h"
#include "compress/quantized_sync.h"
#include "compress/randk.h"
#include "compress/topk.h"
#include "compress/wrappers.h"
#include "core/apf_manager.h"
#include "core/strawmen.h"
#include "fl/sync_strategy.h"
#include "util/rng.h"

namespace apf {
namespace {

core::ApfOptions test_apf_options() {
  core::ApfOptions opt;
  opt.check_every_rounds = 2;
  opt.ema_alpha = 0.7;
  opt.stability_threshold = 0.3;
  return opt;
}

core::StrawmanOptions test_strawman_options() {
  core::StrawmanOptions opt;
  opt.check_every_rounds = 2;
  opt.ema_alpha = 0.7;
  opt.stability_threshold = 0.3;
  return opt;
}

struct StrategyCase {
  std::string name;
  std::function<std::unique_ptr<fl::SyncStrategy>()> make;
  /// Whether all clients must hold identical parameters after every sync
  /// (true for everything except PartialSync, which deliberately lets the
  /// excluded scalars diverge).
  bool consistent_clients = true;
};

// Without this, gtest prints the parameter as its raw bytes, which include
// heap pointers, so the ctest names gtest_discover_tests derives from
// --gtest_list_tests would change on every build.
void PrintTo(const StrategyCase& c, std::ostream* os) { *os << c.name; }

std::vector<StrategyCase> all_strategies() {
  std::vector<StrategyCase> cases;
  cases.push_back({"FedAvg", [] { return std::make_unique<fl::FullSync>(); },
                   true});
  cases.push_back({"APF",
                   [] {
                     return std::make_unique<core::ApfManager>(
                         test_apf_options());
                   },
                   true});
  cases.push_back({"APF#",
                   [] {
                     auto opt = test_apf_options();
                     opt.random_mode = core::RandomFreezeMode::kSharp;
                     return std::make_unique<core::ApfManager>(opt);
                   },
                   true});
  cases.push_back({"APF++",
                   [] {
                     auto opt = test_apf_options();
                     opt.random_mode = core::RandomFreezeMode::kPlusPlus;
                     opt.pp_prob_coeff = 0.01;
                     opt.pp_len_coeff = 0.05;
                     return std::make_unique<core::ApfManager>(opt);
                   },
                   true});
  cases.push_back({"APF+Q",
                   [] {
                     return std::make_unique<compress::QuantizedSync>(
                         std::make_unique<core::ApfManager>(
                             test_apf_options()));
                   },
                   true});
  cases.push_back({"APF+QSGD",
                   [] {
                     return std::make_unique<compress::UpdateQuantizedSync>(
                         std::make_unique<core::ApfManager>(
                             test_apf_options()),
                         std::make_unique<compress::QsgdCodec>(4));
                   },
                   true});
  cases.push_back({"APF+DP",
                   [] {
                     return std::make_unique<compress::DpNoiseSync>(
                         std::make_unique<core::ApfManager>(
                             test_apf_options()),
                         0.01, 5);
                   },
                   true});
  cases.push_back({"Gaia",
                   [] { return std::make_unique<compress::GaiaSync>(); },
                   true});
  cases.push_back({"CMFL",
                   [] { return std::make_unique<compress::CmflSync>(); },
                   true});
  cases.push_back({"TopK",
                   [] { return std::make_unique<compress::TopKSync>(); },
                   true});
  cases.push_back({"RandK",
                   [] { return std::make_unique<compress::RandKSync>(); },
                   true});
  cases.push_back({"PartialSync",
                   [] {
                     return std::make_unique<core::PartialSync>(
                         test_strawman_options());
                   },
                   false});
  cases.push_back({"PermanentFreeze",
                   [] {
                     return std::make_unique<core::PermanentFreeze>(
                         test_strawman_options());
                   },
                   true});
  return cases;
}

class StrategyZoo : public ::testing::TestWithParam<StrategyCase> {};

/// Runs `rounds` synthetic rounds; returns the strategy's final global.
std::vector<float> drive(fl::SyncStrategy& strategy, std::size_t dim,
                         std::size_t clients, std::size_t rounds,
                         std::uint64_t seed,
                         bool check_consistency) {
  std::vector<float> init(dim, 0.f);
  strategy.init(init, clients);
  std::vector<std::vector<float>> params(clients, init);
  Rng rng(seed);
  for (std::size_t k = 1; k <= rounds; ++k) {
    const auto global = strategy.global_params();
    const Bitmap* mask = strategy.frozen_mask();
    for (std::size_t i = 0; i < clients; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        // Half drift, half oscillate; plus client-specific noise.
        const float base = (j < dim / 2)
                               ? 0.01f
                               : (k % 2 == 0 ? 0.05f : -0.05f);
        params[i][j] = global[j] + base +
                       rng.uniform_float(-0.005f, 0.005f);
        if (mask != nullptr && mask->get(j)) {
          params[i][j] = strategy.frozen_anchor()[j];
        }
      }
    }
    const auto result = strategy.synchronize(fl::RoundId(k), params, std::vector<double>(clients, 1.0));
    // Invariants checked every round:
    EXPECT_EQ(result.bytes_up.size(), clients);
    EXPECT_EQ(result.bytes_down.size(), clients);
    for (std::size_t i = 0; i < clients; ++i) {
      EXPECT_GE(result.bytes_up[i], fl::ByteCount(0));
      EXPECT_GE(result.bytes_down[i], fl::ByteCount(0));
    }
    EXPECT_GE(result.frozen_fraction, 0.0);
    EXPECT_LE(result.frozen_fraction, 1.0);
    if (check_consistency) {
      for (std::size_t i = 1; i < clients; ++i) {
        EXPECT_EQ(params[0], params[i]) << "round " << k << " client " << i;
      }
    }
    for (float v : strategy.global_params()) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
  return std::vector<float>(strategy.global_params().begin(),
                            strategy.global_params().end());
}

TEST_P(StrategyZoo, InvariantsHold) {
  const auto& c = GetParam();
  auto strategy = c.make();
  drive(*strategy, 32, 3, 30, 1234, c.consistent_clients);
}

TEST_P(StrategyZoo, DeterministicGivenSeed) {
  const auto& c = GetParam();
  auto a = c.make();
  auto b = c.make();
  const auto ga = drive(*a, 16, 2, 20, 77, false);
  const auto gb = drive(*b, 16, 2, 20, 77, false);
  EXPECT_EQ(ga, gb);
}

TEST_P(StrategyZoo, DriftersReachTheServer) {
  // Whatever a strategy filters, sustained directed movement must make it
  // into the global model eventually (no strategy may starve real progress).
  const auto& c = GetParam();
  auto strategy = c.make();
  const auto global = drive(*strategy, 32, 3, 60, 9, false);
  double drifter_mass = 0.0;
  for (std::size_t j = 0; j < 16; ++j) drifter_mass += global[j];
  // 60 rounds x +0.01 per round = 0.6 per drifting coordinate if nothing
  // were filtered; require at least a third of that on average.
  EXPECT_GT(drifter_mass / 16.0, 0.2);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyZoo, ::testing::ValuesIn(all_strategies()),
    [](const ::testing::TestParamInfo<StrategyCase>& info) {
      std::string name = info.param.name;
      for (auto& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace apf
