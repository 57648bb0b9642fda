// Golden SimulationResult digests.
//
// Each case runs a small but complete federated simulation and folds every
// RoundRecord field (staleness included), every SimulationResult total and
// the final global parameters into one FNV-1a 64 digest over their bit
// patterns. The constants below pin the runner's observable behaviour: a
// refactor of the round loop must leave every one of them unchanged. Each
// case also runs at 1, 2 and 4 worker threads, which must agree bit for bit.
//
// To re-pin after an intended behaviour change, run this binary and copy
// the "actual" digest each failing case prints.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "compress/cmfl.h"
#include "compress/codecs.h"
#include "compress/gaia.h"
#include "compress/quantized_sync.h"
#include "compress/randk.h"
#include "compress/topk.h"
#include "compress/wrappers.h"
#include "core/apf_manager.h"
#include "core/strawmen.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "data/synthetic_sequences.h"
#include "fl/runner.h"
#include "fl/sync_strategy.h"
#include "nn/batchnorm.h"
#include "nn/conv_layers.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "nn/param_vector.h"
#include "nn/resnet.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "util/rng.h"

namespace apf {
namespace {

using data::SyntheticImageDataset;
using data::SyntheticImageSpec;

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const fl::SimulationResult& result) {
  Fnv1a h;
  h.u64(result.rounds.size());
  for (const fl::RoundRecord& r : result.rounds) {
    h.u64(r.round.value());
    h.f64(r.test_accuracy);
    h.f64(r.train_loss);
    h.f64(r.bytes_per_client);
    h.f64(r.cumulative_bytes_per_client);
    h.u64(r.participants);
    h.f64(r.bytes_per_participant);
    h.f64(r.frozen_fraction);
    h.f64(r.round_seconds);
    h.f64(r.cumulative_seconds);
    h.u64(r.staleness.size());
    for (const auto& [client, staleness] : r.staleness) {
      h.u64(client.value());
      h.u64(staleness);
    }
  }
  h.f64(result.best_accuracy);
  h.f64(result.final_accuracy);
  h.f64(result.total_bytes_per_client);
  h.f64(result.total_seconds);
  h.f64(result.mean_frozen_fraction);
  h.u64(result.final_global_params.size());
  for (const float v : result.final_global_params) h.f32(v);
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

SyntheticImageSpec tiny_spec() {
  SyntheticImageSpec spec;
  spec.num_classes = 4;
  spec.channels = 1;
  spec.image_size = 8;
  spec.noise_stddev = 0.3;
  return spec;
}

fl::ModelFactory tiny_mlp_factory() {
  return [] {
    Rng rng(4242);
    auto net = std::make_unique<nn::Sequential>();
    net->add(std::make_unique<nn::Flatten>(), "flatten");
    net->add(nn::make_mlp(rng, 64, 16, 1, 4), "mlp");
    return net;
  };
}

/// conv3x3 -> BatchNorm -> ReLU -> maxpool -> linear: the smallest model
/// that carries BatchNorm buffers through the aux-frame path.
fl::ModelFactory small_bn_cnn_factory() {
  return [] {
    Rng rng(777);
    auto net = std::make_unique<nn::Sequential>();
    net->add(std::make_unique<nn::Conv2d>(1, 4, 3, rng, 1, 1), "conv");
    net->add(std::make_unique<nn::BatchNorm2d>(4), "bn");
    net->add(std::make_unique<nn::ReLU>(), "relu");
    net->add(std::make_unique<nn::MaxPool2d>(2), "pool");
    net->add(std::make_unique<nn::Flatten>(), "flatten");
    net->add(std::make_unique<nn::Linear>(64, 4, rng), "fc");
    return net;
  };
}

fl::OptimizerFactory sgd(double lr) {
  return [lr](nn::Module& m) {
    return std::make_unique<optim::Sgd>(m.parameters(), lr);
  };
}

core::ApfOptions apf_options() {
  core::ApfOptions opt;
  opt.check_every_rounds = 2;
  opt.ema_alpha = 0.7;
  opt.stability_threshold = 0.3;
  return opt;
}

core::StrawmanOptions strawman_options() {
  core::StrawmanOptions opt;
  opt.check_every_rounds = 2;
  opt.ema_alpha = 0.7;
  opt.stability_threshold = 0.3;
  return opt;
}

std::vector<core::TensorSegment> mlp_segments() {
  auto probe = tiny_mlp_factory()();
  std::vector<core::TensorSegment> segments;
  for (const auto& seg : nn::param_segments(*probe)) {
    segments.push_back({seg.offset, seg.size});
  }
  return segments;
}

/// Tiny MLP, 4 clients, synchronous rounds, every third round evaluated.
fl::SimulationResult run_mlp_sync(fl::SyncStrategy& strategy,
                                  std::size_t worker_threads) {
  SyntheticImageDataset train(tiny_spec(), 64, 1);
  SyntheticImageDataset test(tiny_spec(), 24, 2);
  Rng prng(31);
  auto partition = data::iid_partition(train.size(), 4, prng);
  fl::FlConfig config;
  config.num_clients = 4;
  config.rounds = 20;
  config.local_iters = 2;
  config.batch_size = 8;
  config.eval_every = 3;
  config.seed = 5;
  config.worker_threads = worker_threads;
  fl::FederatedRunner runner(config, train, partition, test,
                             tiny_mlp_factory(), sgd(0.1), strategy);
  return runner.run();
}

/// BatchNorm CNN under APF with half participation, FedProx, a gradient
/// clip, a dropped straggler and a decaying learning rate.
fl::SimulationResult run_bn_cnn_apf(std::size_t worker_threads) {
  SyntheticImageDataset train(tiny_spec(), 64, 3);
  SyntheticImageDataset test(tiny_spec(), 24, 4);
  Rng prng(32);
  auto partition = data::iid_partition(train.size(), 4, prng);
  fl::FlConfig config;
  config.num_clients = 4;
  config.rounds = 8;
  config.local_iters = 2;
  config.batch_size = 8;
  config.eval_every = 2;
  config.seed = 6;
  config.participation_fraction = 0.5;
  config.fedprox_mu = 0.01;
  config.grad_clip_norm = 1.0;
  config.straggler_policy = fl::StragglerPolicy::kDrop;
  config.workload_fraction = {1.0, 1.0, 1.0, 0.5};
  config.worker_threads = worker_threads;
  core::ApfManager strategy(apf_options());
  const optim::MultiplicativeDecayLr schedule(0.05, 0.9, 2);
  fl::FederatedRunner runner(config, train, partition, test,
                             small_bn_cnn_factory(), sgd(0.05), strategy);
  runner.set_lr_schedule(&schedule);
  return runner.run();
}

/// Buffered async FullSync: a straggler distribution whose slow clients
/// miss the timeout and carry over, under partial participation.
fl::SimulationResult run_mlp_async(std::size_t worker_threads) {
  SyntheticImageDataset train(tiny_spec(), 72, 5);
  SyntheticImageDataset test(tiny_spec(), 24, 6);
  Rng prng(33);
  auto partition = data::iid_partition(train.size(), 6, prng);
  fl::FlConfig config;
  config.num_clients = 6;
  config.rounds = 10;
  config.local_iters = 2;
  config.batch_size = 8;
  config.eval_every = 3;
  config.seed = 7;
  config.compute_seconds_per_iter = 0.1;
  config.compute_multiplier = {1.0, 3.0, 1.0, 9.0, 6.0, 2.0};
  config.participation_fraction = 0.67;
  config.aggregation_mode = fl::AggregationMode::kAsyncBuffered;
  config.async_goal_k = 4;
  config.async_timeout_seconds = 1.0;
  config.worker_threads = worker_threads;
  fl::FullSync strategy;
  fl::FederatedRunner runner(config, train, partition, test,
                             tiny_mlp_factory(), sgd(0.05), strategy);
  return runner.run();
}

/// A 2-layer recurrent KWS model (hidden 5, 4 classes over 6 features).
using RecurrentMaker = std::unique_ptr<nn::Sequential> (*)(
    Rng&, std::size_t, std::size_t, std::size_t);

/// Two stacked recurrent layers plus a linear head on synthetic sequences,
/// synchronous FullSync, evaluated every round: the recurrent forward, BPTT
/// backward and eval-mode forward paths. Hidden size 5 makes the 4H = 20
/// (LSTM) and 3H = 15 (GRU) gate rows and the 4-class head end in partial
/// 8-row panels of matmul_nt.
fl::SimulationResult run_recurrent_sync(RecurrentMaker make,
                                        std::size_t worker_threads) {
  data::SyntheticSequenceSpec spec;
  spec.num_classes = 4;
  spec.time_steps = 5;
  spec.features = 6;
  data::SyntheticSequenceDataset train(spec, 64, 7);
  data::SyntheticSequenceDataset test(spec, 24, 8);
  Rng prng(34);
  auto partition = data::iid_partition(train.size(), 4, prng);
  fl::FlConfig config;
  config.num_clients = 4;
  config.rounds = 6;
  config.local_iters = 2;
  config.batch_size = 8;
  config.eval_every = 1;
  config.seed = 8;
  config.worker_threads = worker_threads;
  fl::FullSync strategy;
  fl::FederatedRunner runner(
      config, train, partition, test,
      [make] {
        Rng rng(909);
        return make(rng, 6, 5, 4);
      },
      sgd(0.1), strategy);
  return runner.run();
}

fl::SimulationResult run_lstm_sync(std::size_t worker_threads) {
  return run_recurrent_sync(nn::make_kws_lstm, worker_threads);
}

fl::SimulationResult run_gru_sync(std::size_t worker_threads) {
  return run_recurrent_sync(nn::make_kws_gru, worker_threads);
}

/// Biased 3x3 stem conv, then a stride-2 BasicBlock with its 1x1 projection,
/// global average pooling and a linear head, under fp16-quantized APF in
/// synchronous rounds with every second round evaluated: the conv forward,
/// backward (dW, bias, input gradient) and eval-mode forward paths at
/// stride 1 and 2, pad 0 and 1, kernel 1 and 3.
fl::SimulationResult run_resnet_quantized_apf(std::size_t worker_threads) {
  SyntheticImageSpec spec = tiny_spec();
  spec.channels = 3;
  spec.image_size = 12;
  SyntheticImageDataset train(spec, 64, 9);
  SyntheticImageDataset test(spec, 24, 10);
  Rng prng(35);
  auto partition = data::iid_partition(train.size(), 4, prng);
  fl::FlConfig config;
  config.num_clients = 4;
  config.rounds = 6;
  config.local_iters = 2;
  config.batch_size = 8;
  config.eval_every = 2;
  config.seed = 9;
  config.worker_threads = worker_threads;
  compress::QuantizedSync strategy(
      std::make_unique<core::ApfManager>(apf_options()));
  fl::FederatedRunner runner(
      config, train, partition, test,
      [] {
        Rng rng(515);
        auto net = std::make_unique<nn::Sequential>();
        net->add(std::make_unique<nn::Conv2d>(3, 4, 3, rng, 1, 1, true),
                 "stem_conv");
        net->add(std::make_unique<nn::ReLU>(), "stem_relu");
        net->add(std::make_unique<nn::BasicBlock>(4, 6, 2, rng), "block");
        net->add(std::make_unique<nn::GlobalAvgPool>(), "gap");
        net->add(std::make_unique<nn::Linear>(6, 4, rng), "fc");
        return net;
      },
      sgd(0.05), strategy);
  return runner.run();
}

/// Wraps a strategy maker into a sync-MLP case runner.
template <typename Make>
std::function<fl::SimulationResult(std::size_t)> mlp_sync(Make make) {
  return [make](std::size_t worker_threads) {
    std::unique_ptr<fl::SyncStrategy> strategy = make();
    return run_mlp_sync(*strategy, worker_threads);
  };
}

struct GoldenCase {
  std::string name;
  std::function<fl::SimulationResult(std::size_t)> run;
  std::uint64_t digest;
};

// Keeps gtest's parameter dump (and so the ctest names) to the case name.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  cases.push_back({"FullSync", mlp_sync([] {
                     return std::make_unique<fl::FullSync>();
                   }),
                   0xa9e4297e31a84cb9ULL});
  cases.push_back({"ApfScalar", mlp_sync([] {
                     return std::make_unique<core::ApfManager>(apf_options());
                   }),
                   0xa3edcc1914ced06fULL});
  cases.push_back({"ApfTensor", mlp_sync([] {
                     auto opt = apf_options();
                     opt.granularity = core::FreezeGranularity::kTensor;
                     opt.stability_threshold = 0.9;
                     opt.tensor_vote_fraction = 0.2;
                     auto apf = std::make_unique<core::ApfManager>(opt);
                     apf->set_segments(mlp_segments());
                     return apf;
                   }),
                   0xd48231f6bbd8b139ULL});
  cases.push_back({"ApfSharp", mlp_sync([] {
                     auto opt = apf_options();
                     opt.random_mode = core::RandomFreezeMode::kSharp;
                     return std::make_unique<core::ApfManager>(opt);
                   }),
                   0xe33227593717a0deULL});
  cases.push_back({"ApfPlusPlus", mlp_sync([] {
                     auto opt = apf_options();
                     opt.random_mode = core::RandomFreezeMode::kPlusPlus;
                     opt.pp_prob_coeff = 0.01;
                     opt.pp_len_coeff = 0.05;
                     return std::make_unique<core::ApfManager>(opt);
                   }),
                   0x10cfe74ede4c3a17ULL});
  cases.push_back({"PartialSync", mlp_sync([] {
                     return std::make_unique<core::PartialSync>(
                         strawman_options());
                   }),
                   0x4715a7589a80fd24ULL});
  cases.push_back({"PermanentFreeze", mlp_sync([] {
                     return std::make_unique<core::PermanentFreeze>(
                         strawman_options());
                   }),
                   0x0f335c6345f7d8e8ULL});
  cases.push_back({"TopK", mlp_sync([] {
                     return std::make_unique<compress::TopKSync>();
                   }),
                   0x4020af3c5a3db2a4ULL});
  cases.push_back({"Gaia", mlp_sync([] {
                     return std::make_unique<compress::GaiaSync>();
                   }),
                   0x21c9eb8ac24c0089ULL});
  cases.push_back({"RandK", mlp_sync([] {
                     return std::make_unique<compress::RandKSync>();
                   }),
                   0xbe73b82a07260ac3ULL});
  cases.push_back({"Cmfl", mlp_sync([] {
                     return std::make_unique<compress::CmflSync>();
                   }),
                   0x9ed1f554b05b31aeULL});
  cases.push_back({"QuantizedApf", mlp_sync([] {
                     return std::make_unique<compress::QuantizedSync>(
                         std::make_unique<core::ApfManager>(apf_options()));
                   }),
                   0x1430ed50c2295d30ULL});
  cases.push_back({"UpdateQuantizedQsgd", mlp_sync([] {
                     return std::make_unique<compress::UpdateQuantizedSync>(
                         std::make_unique<core::ApfManager>(apf_options()),
                         std::make_unique<compress::QsgdCodec>(4));
                   }),
                   0x20f5c9fed930f260ULL});
  cases.push_back({"UpdateQuantizedTernGrad", mlp_sync([] {
                     return std::make_unique<compress::UpdateQuantizedSync>(
                         std::make_unique<core::ApfManager>(apf_options()),
                         std::make_unique<compress::TernGradCodec>());
                   }),
                   0x08ae8a415f930ff4ULL});
  cases.push_back({"DpNoise", mlp_sync([] {
                     return std::make_unique<compress::DpNoiseSync>(
                         std::make_unique<core::ApfManager>(apf_options()),
                         0.01, 5);
                   }),
                   0x72cd9a56430269f1ULL});
  cases.push_back({"BnCnnApfPartialProxClipDropLr", run_bn_cnn_apf,
                   0x2c2f6b5c5a847915ULL});
  cases.push_back(
      {"AsyncFullSyncCarryOver", run_mlp_async, 0x7770f97c8b8a117cULL});
  cases.push_back({"LstmFullSyncEvalEveryRound", run_lstm_sync,
                   0xd9dba394f823481fULL});
  cases.push_back({"GruFullSyncEvalEveryRound", run_gru_sync,
                   0x162408e9d16447bbULL});
  cases.push_back({"ResNetQuantizedApfEvalEveryTwo", run_resnet_quantized_apf,
                   0xbc9cbe27172132bfULL});
  return cases;
}

class GoldenDigest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenDigest, MatchesPinnedValueAtOneAndFourWorkers) {
  const GoldenCase& c = GetParam();
  const std::uint64_t one = digest(c.run(1));
  const std::uint64_t four = digest(c.run(4));
  EXPECT_EQ(hex(one), hex(four)) << c.name << ": worker count changed output";
  EXPECT_EQ(hex(one), hex(c.digest)) << c.name << ": actual " << hex(one);
}

// At 2 workers a lane recycles its lane store between clients (most cases
// have 4) while the other lane's client still holds backward state there.
TEST_P(GoldenDigest, MatchesPinnedValueAtTwoWorkers) {
  const GoldenCase& c = GetParam();
  EXPECT_EQ(hex(digest(c.run(2))), hex(c.digest)) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllCases, GoldenDigest,
                         ::testing::ValuesIn(golden_cases()),
                         [](const auto& info) { return info.param.name; });

// The digests only pin what the cases exercise; these checks keep each
// case's premise true so a pinned value never silently stops covering it.
TEST(GoldenDigestPremise, CasesExerciseTheirFeatures) {
  // Distinct digests: no case collapses into another (a freezing strategy
  // that never froze would reproduce the FullSync digest).
  const std::vector<GoldenCase> cases = golden_cases();
  for (std::size_t a = 0; a < cases.size(); ++a) {
    for (std::size_t b = a + 1; b < cases.size(); ++b) {
      EXPECT_NE(cases[a].digest, cases[b].digest)
          << cases[a].name << " vs " << cases[b].name;
    }
  }

  const fl::SimulationResult bn = run_bn_cnn_apf(1);
  bool partial = false;
  for (const auto& r : bn.rounds) partial = partial || r.participants < 4;
  EXPECT_TRUE(partial);

  const fl::SimulationResult async = run_mlp_async(1);
  bool carried_over = false;
  bool short_commit = false;
  for (const auto& r : async.rounds) {
    for (const auto& [client, staleness] : r.staleness) {
      carried_over = carried_over || staleness > 0;
    }
    short_commit = short_commit || r.participants < 4;
  }
  EXPECT_TRUE(carried_over);
  EXPECT_TRUE(short_commit);

  // Every LSTM and GRU round runs the eval-mode forward.
  const fl::SimulationResult lstm = run_lstm_sync(1);
  for (const auto& r : lstm.rounds) EXPECT_GE(r.test_accuracy, 0.0);
  const fl::SimulationResult gru = run_gru_sync(1);
  for (const auto& r : gru.rounds) EXPECT_GE(r.test_accuracy, 0.0);

  // The ResNet case evaluates the conv stack and APF freezes some of it.
  const fl::SimulationResult resnet = run_resnet_quantized_apf(1);
  bool froze = false;
  for (const auto& r : resnet.rounds) froze = froze || r.frozen_fraction > 0.0;
  EXPECT_TRUE(froze);
  EXPECT_GE(resnet.best_accuracy, 0.0);
}

}  // namespace
}  // namespace apf
