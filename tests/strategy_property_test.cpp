// Universal invariants every SyncStrategy must satisfy, swept over the whole
// strategy zoo (TEST_P). The harness drives strategies directly with a
// synthetic drift-and-oscillate workload, honoring the runner's pinning
// contract for freezing strategies.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <tuple>

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
#include "util/thread_pool.h"

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

// ---------------------------------------------------------------------------
// The batch driver equals the five StreamSync hooks driven by hand.
// ---------------------------------------------------------------------------

struct StreamCase {
  std::string name;
  std::function<std::unique_ptr<fl::SyncStrategy>()> make;
  /// Whether a weight-0 client still pushes and is billed the pull (false
  /// for the error-feedback sparsifiers, where it sits the round out).
  bool zero_weight_exchange = true;
};

void PrintTo(const StreamCase& c, std::ostream* os) { *os << c.name; }

std::vector<StreamCase> stream_strategies() {
  auto apf = [](auto&& configure) {
    return [configure] {
      core::ApfOptions opt = test_apf_options();
      opt.check_every_rounds = 1;
      configure(opt);
      auto manager = std::make_unique<core::ApfManager>(opt);
      manager->set_segments({{0, 10}, {10, 14}});
      return manager;
    };
  };
  core::StrawmanOptions strawman = test_strawman_options();
  strawman.check_every_rounds = 1;
  std::vector<StreamCase> cases;
  cases.push_back({"FedAvg", [] { return std::make_unique<fl::FullSync>(); }});
  cases.push_back({"APFScalar", apf([](core::ApfOptions&) {})});
  cases.push_back({"APFTensor", apf([](core::ApfOptions& opt) {
                     opt.granularity = core::FreezeGranularity::kTensor;
                   })});
  cases.push_back({"APFServerMask", apf([](core::ApfOptions& opt) {
                     opt.server_side_mask = true;
                   })});
  cases.push_back({"PartialSync", [strawman] {
                     return std::make_unique<core::PartialSync>(strawman);
                   }});
  cases.push_back({"PermanentFreeze", [strawman] {
                     return std::make_unique<core::PermanentFreeze>(strawman);
                   }});
  cases.push_back({"TopK",
                   [] { return std::make_unique<compress::TopKSync>(); },
                   false});
  cases.push_back({"RandK",
                   [] { return std::make_unique<compress::RandKSync>(); },
                   false});
  cases.push_back({"Gaia",
                   [] { return std::make_unique<compress::GaiaSync>(); },
                   false});
  return cases;
}

bool bits_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

class StreamEqualsBatch
    : public ::testing::TestWithParam<std::tuple<StreamCase, std::size_t>> {};

TEST_P(StreamEqualsBatch, HandDrivenHooksMatchSynchronizeBitForBit) {
  const auto& [c, lanes] = GetParam();
  util::ThreadPool pool(lanes);
  const util::ScopedComputePool compute_scope(pool);

  constexpr std::size_t kDim = 24;
  constexpr std::size_t kClients = 4;
  const std::vector<double> weights = {2.0, 0.0, 1.0, 3.0};
  const double weight_total = 6.0;
  Rng rng(31);
  std::vector<float> init(kDim);
  for (auto& v : init) v = rng.uniform_float(-1.f, 1.f);
  auto batch = c.make();
  auto streamed = c.make();
  batch->init(init, kClients);
  streamed->init(init, kClients);
  fl::StreamSync* stream = streamed->stream_sync();
  ASSERT_NE(stream, nullptr);

  std::vector<std::vector<float>> batch_params(kClients, init);
  std::vector<std::vector<float>> stream_params(kClients, init);
  for (std::size_t k = 1; k <= 3; ++k) {
    // Identical proposals for both replicas: drift on the first half,
    // oscillation on the second, frozen scalars pinned to the anchor.
    const Bitmap* mask = batch->frozen_mask();
    for (std::size_t i = 0; i < kClients; ++i) {
      for (std::size_t j = 0; j < kDim; ++j) {
        const float step =
            j < kDim / 2 ? 0.02f : (k % 2 == 0 ? 0.3f : -0.3f);
        batch_params[i][j] += step + rng.uniform_float(-0.01f, 0.01f);
        if (mask != nullptr && mask->get(j)) {
          batch_params[i][j] = batch->frozen_anchor()[j];
        }
      }
      stream_params[i] = batch_params[i];
    }
    const auto result =
        batch->synchronize(fl::RoundId(k), batch_params, weights);

    stream->begin_fold(fl::RoundId(k));
    std::vector<std::vector<std::uint8_t>> up(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      if (c.zero_weight_exchange || weights[i] > 0.0) {
        up[i] = stream->encode_push(fl::ClientId(i), stream_params[i]);
      }
    }
    for (std::size_t i = 0; i < kClients; ++i) {
      if (weights[i] > 0.0) {
        stream->fold_push(fl::ClientId(i), up[i], weights[i] / weight_total);
      }
    }
    const std::vector<std::uint8_t> pull = stream->finish_fold();
    for (auto& params : stream_params) stream->apply_pull(pull, params);

    ASSERT_EQ(result.frames_up.size(), kClients);
    ASSERT_EQ(result.frames_down.size(), kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      const bool exchanges = c.zero_weight_exchange || weights[i] > 0.0;
      const std::vector<std::uint8_t> down =
          exchanges ? pull : std::vector<std::uint8_t>{};
      EXPECT_EQ(result.frames_up[i], up[i]) << "round " << k << " client " << i;
      EXPECT_EQ(result.frames_down[i], down)
          << "round " << k << " client " << i;
      EXPECT_EQ(result.bytes_up[i], fl::ByteCount(up[i].size()));
      EXPECT_EQ(result.bytes_down[i], fl::ByteCount(down.size()));
      EXPECT_TRUE(bits_equal(batch_params[i], stream_params[i]))
          << "round " << k << " client " << i;
    }
    EXPECT_TRUE(bits_equal(batch->global_params(), streamed->global_params()))
        << "round " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryStreamingStrategy, StreamEqualsBatch,
    ::testing::Combine(::testing::ValuesIn(stream_strategies()),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const ::testing::TestParamInfo<StreamEqualsBatch::ParamType>& info) {
      return std::get<0>(info.param).name + "_" +
             std::to_string(std::get<1>(info.param)) + "Lanes";
    });

}  // namespace
}  // namespace apf
