// Tests for the second extension wave: GRU, Rand-k sparsification, gradient
// clipping, and partial client participation in the runner.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "compress/gaia.h"
#include "compress/randk.h"
#include "compress/topk.h"
#include "data/partition.h"
#include "data/synthetic_sequences.h"
#include "fl/runner.h"
#include "grad_check.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "optim/clip.h"
#include "optim/optimizer.h"
#include "util/error.h"
#include "util/rng.h"

namespace apf {
namespace {

// ---------------------------------------------------------------------------
// GRU
// ---------------------------------------------------------------------------

TEST(Gru, ForwardShape) {
  Rng rng(1);
  nn::GRU gru(5, 7, rng);
  Tensor y = gru.forward(Tensor::uniform({3, 4, 5}, rng));
  EXPECT_EQ(y.shape(), (Shape{3, 4, 7}));
}

TEST(Gru, OutputBounded) {
  // h is a convex combination of tanh outputs and prior h, so |h| < 1.
  Rng rng(2);
  nn::GRU gru(3, 5, rng);
  Tensor y = gru.forward(Tensor::uniform({2, 12, 3}, rng, -5.f, 5.f));
  EXPECT_GT(y.min(), -1.f);
  EXPECT_LT(y.max(), 1.f);
}

TEST(Gru, GradCheck) {
  Rng rng(3);
  nn::GRU gru(3, 4, rng);
  test::check_gradients(gru, Tensor::uniform({2, 3, 3}, rng), rng,
                        {.eps = 1e-2, .rel_tol = 5e-2, .abs_tol = 5e-3});
}

TEST(Gru, HasFourParameterTensors) {
  Rng rng(4);
  nn::GRU gru(3, 4, rng);
  const auto params = gru.parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "w_ih");
  EXPECT_EQ(params[3].name, "bias_hh");
  EXPECT_EQ(gru.parameter_count(), 3 * 4 * 3 + 3 * 4 * 4 + 3 * 4 + 3 * 4);
}

TEST(Gru, RejectsWrongFeatureCount) {
  Rng rng(5);
  nn::GRU gru(5, 4, rng);
  EXPECT_THROW(gru.forward(Tensor::uniform({2, 3, 4}, rng)), Error);
}

TEST(KwsGru, EndToEndShape) {
  Rng rng(6);
  auto net = nn::make_kws_gru(rng, 8, 16, 10);
  Tensor y = net->forward(Tensor::uniform({3, 12, 8}, rng));
  EXPECT_EQ(y.shape(), (Shape{3, 10}));
}

TEST(KwsGru, LearnsSequenceTask) {
  data::SyntheticSequenceSpec spec;
  spec.num_classes = 3;
  spec.time_steps = 10;
  spec.features = 4;
  spec.noise_stddev = 0.2;
  data::SyntheticSequenceDataset train(spec, 90, 1);
  Rng rng(7);
  auto net = nn::make_kws_gru(rng, 4, 16, 3);
  optim::Adam adam(net->parameters(), 5e-3);
  std::vector<std::size_t> all(train.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto batch = train.get_batch(all);
  double first = 0, last = 0;
  for (int step = 0; step < 120; ++step) {
    adam.zero_grad();
    const Tensor logits = net->forward(batch.inputs);
    const auto loss = nn::softmax_cross_entropy(logits, batch.labels);
    net->backward(loss.grad_logits);
    adam.step();
    if (step == 0) first = loss.loss;
    last = loss.loss;
  }
  EXPECT_LT(last, first * 0.5);
}

// ---------------------------------------------------------------------------
// Rand-k
// ---------------------------------------------------------------------------

TEST(RandK, SelectsDeterministicCoordinatesPerRound) {
  compress::RandKOptions opt;
  opt.fraction = 0.5;
  opt.unbiased_scaling = false;
  auto make = [&] {
    auto strategy = std::make_unique<compress::RandKSync>(opt);
    strategy->init(std::vector<float>(8, 0.f), 1);
    return strategy;
  };
  auto a = make(), b = make();
  auto pa = std::vector<std::vector<float>>{std::vector<float>(8, 1.f)};
  auto pb = pa;
  a->synchronize(fl::RoundId(1), pa, {1.0});
  b->synchronize(fl::RoundId(1), pb, {1.0});
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_EQ(a->global_params()[j], b->global_params()[j]);
  }
}

TEST(RandK, BytesReflectFraction) {
  compress::RandKOptions opt;
  opt.fraction = 0.25;
  compress::RandKSync strategy(opt);
  strategy.init(std::vector<float>(100, 0.f), 1);
  auto params = std::vector<std::vector<float>>{std::vector<float>(100, 1.f)};
  const auto result = strategy.synchronize(fl::RoundId(1), params, {1.0});
  // Measured APR1 frame: 24-byte header + 25 fp32 values.
  EXPECT_EQ(result.bytes_up[0], fl::ByteCount(24 + 4 * 25));
  // Measured APD1 frame: 8-byte header + 100 fp32 values.
  EXPECT_EQ(result.bytes_down[0], fl::ByteCount(408));
}

TEST(RandK, ResidualPreservesUnselectedMass) {
  compress::RandKOptions opt;
  opt.fraction = 0.5;
  opt.unbiased_scaling = false;
  compress::RandKSync strategy(opt);
  strategy.init(std::vector<float>(4, 0.f), 1);
  auto params = std::vector<std::vector<float>>{{1.f, 1.f, 1.f, 1.f}};
  strategy.synchronize(fl::RoundId(1), params, {1.0});
  // Exactly half of the mass was applied; the rest waits in the residual.
  double applied = 0;
  for (float v : strategy.global_params()) applied += v;
  EXPECT_NEAR(applied, 2.0, 1e-5);
  // Re-pushing zero local change flushes more of the residual over rounds.
  for (std::size_t r = 2; r <= 12; ++r) {
    params[0].assign(strategy.global_params().begin(),
                     strategy.global_params().end());
    strategy.synchronize(fl::RoundId(r), params, {1.0});
  }
  applied = 0;
  for (float v : strategy.global_params()) applied += v;
  EXPECT_NEAR(applied, 4.0, 0.1);
}

TEST(RandK, ZeroWeightClientLeavesNoResidualTrace) {
  // A non-participating client's stale parameters must not leak into its
  // residual and get flushed when it rejoins.
  compress::RandKOptions opt;
  opt.fraction = 1.0;  // everything selected: residuals flush immediately
  opt.unbiased_scaling = false;
  compress::RandKSync strategy(opt);
  strategy.init(std::vector<float>(2, 0.f), 2);
  // Round 1: client 0 pushes +1; client 1 is absent (weight 0) with stale
  // garbage in its local params.
  auto params = std::vector<std::vector<float>>{{1.f, 1.f}, {-50.f, -50.f}};
  strategy.synchronize(fl::RoundId(1), params, {1.0, 0.0});
  EXPECT_FLOAT_EQ(strategy.global_params()[0], 1.f);
  // Round 2: both participate, neither has local change. The global must
  // stay put — no ghost of client 1's stale -50 may appear.
  params[0].assign(strategy.global_params().begin(),
                   strategy.global_params().end());
  params[1] = params[0];
  const auto result = strategy.synchronize(fl::RoundId(2), params, {1.0, 1.0});
  EXPECT_FLOAT_EQ(strategy.global_params()[0], 1.f);
  EXPECT_FLOAT_EQ(strategy.global_params()[1], 1.f);
  EXPECT_GT(result.bytes_up[1], fl::ByteCount(0));
}

TEST(TopK, ZeroWeightClientChargedNothing) {
  compress::TopKSync strategy;
  strategy.init(std::vector<float>(4, 0.f), 2);
  auto params = std::vector<std::vector<float>>{{1.f, 0.f, 0.f, 0.f},
                                                {9.f, 9.f, 9.f, 9.f}};
  const auto result = strategy.synchronize(fl::RoundId(1), params, {1.0, 0.0});
  EXPECT_EQ(result.bytes_up[1], fl::ByteCount(0));
  EXPECT_EQ(result.bytes_down[1], fl::ByteCount(0));
  EXPECT_GT(result.bytes_up[0], fl::ByteCount(0));
}

TEST(Gaia, ZeroWeightClientResidualUntouched) {
  compress::GaiaOptions opt;
  opt.significance_threshold = 0.01;
  opt.decay_threshold = false;
  compress::GaiaSync strategy(opt);
  strategy.init(std::vector<float>{1.f}, 2);
  auto params = std::vector<std::vector<float>>{{2.f}, {-100.f}};
  strategy.synchronize(fl::RoundId(1), params, {1.0, 0.0});
  EXPECT_FLOAT_EQ(strategy.global_params()[0], 2.f);
  // Client 1 rejoins with no local change: nothing stale may flush.
  params[0] = {2.f};
  params[1] = {2.f};
  strategy.synchronize(fl::RoundId(2), params, {1.0, 1.0});
  EXPECT_FLOAT_EQ(strategy.global_params()[0], 2.f);
}

TEST(RandK, UnbiasedScalingAmplifiesSelection) {
  compress::RandKOptions opt;
  opt.fraction = 0.5;
  opt.unbiased_scaling = true;
  compress::RandKSync strategy(opt);
  strategy.init(std::vector<float>(4, 0.f), 1);
  auto params = std::vector<std::vector<float>>{{1.f, 1.f, 1.f, 1.f}};
  strategy.synchronize(fl::RoundId(1), params, {1.0});
  // Selected coordinates moved by 1 * (dim/k) = 2.
  for (float v : strategy.global_params()) {
    EXPECT_TRUE(v == 0.f || std::fabs(v - 2.f) < 1e-6f);
  }
}

// ---------------------------------------------------------------------------
// Gradient clipping
// ---------------------------------------------------------------------------

class TwoParamModule : public nn::Module {
 public:
  TwoParamModule() : a_(Tensor({2})), b_(Tensor({2})) {}
  Tensor forward(const Tensor& input) override { return input; }
  Tensor backward(const Tensor& grad) override { return grad; }
  void collect_params(const std::string& prefix,
                      std::vector<nn::ParamRef>& out) override {
    out.push_back({prefix + "a", &a_});
    out.push_back({prefix + "b", &b_});
  }
  nn::Parameter a_, b_;
};

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  TwoParamModule m;
  m.a_.grad = Tensor({2}, std::vector<float>{3.f, 0.f});
  m.b_.grad = Tensor({2}, std::vector<float>{0.f, 4.f});
  const double norm = optim::clip_grad_norm(m, 1.0);  // ||g|| = 5
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(m.a_.grad[0], 3.f / 5.f, 1e-6f);
  EXPECT_NEAR(m.b_.grad[1], 4.f / 5.f, 1e-6f);
}

TEST(ClipGradNorm, LeavesSmallGradientsUntouched) {
  TwoParamModule m;
  m.a_.grad = Tensor({2}, std::vector<float>{0.1f, 0.f});
  const double norm = optim::clip_grad_norm(m, 1.0);
  EXPECT_NEAR(norm, 0.1, 1e-7);
  EXPECT_FLOAT_EQ(m.a_.grad[0], 0.1f);
}

TEST(ClipGradNorm, RejectsNonPositiveBound) {
  TwoParamModule m;
  EXPECT_THROW(optim::clip_grad_norm(m, 0.0), Error);
}

// ---------------------------------------------------------------------------
// Partial participation
// ---------------------------------------------------------------------------

data::SyntheticSequenceSpec tiny_seq_spec() {
  data::SyntheticSequenceSpec spec;
  spec.num_classes = 4;
  spec.time_steps = 6;
  spec.features = 3;
  spec.noise_stddev = 0.3;
  return spec;
}

fl::ModelFactory seq_factory() {
  return [] {
    Rng rng(888);
    return nn::make_kws_gru(rng, 3, 8, 4);
  };
}

TEST(Participation, RunsAndStaysDeterministic) {
  data::SyntheticSequenceDataset train(tiny_seq_spec(), 80, 1);
  data::SyntheticSequenceDataset test(tiny_seq_spec(), 40, 2);
  auto run_once = [&] {
    Rng prng(3);
    auto partition = data::iid_partition(train.size(), 6, prng);
    fl::FlConfig config;
    config.num_clients = 6;
    config.rounds = 8;
    config.local_iters = 2;
    config.batch_size = 8;
    config.participation_fraction = 0.5;  // 3 of 6 per round
    fl::FullSync strategy;
    fl::FederatedRunner runner(
        config, train, partition, test, seq_factory(),
        [](nn::Module& m) {
          return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
        },
        strategy);
    return runner.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.final_global_params, b.final_global_params);
  EXPECT_GT(a.final_accuracy, 0.0);
}

TEST(Participation, NonParticipantsPayNoBytes) {
  data::SyntheticSequenceDataset train(tiny_seq_spec(), 80, 1);
  data::SyntheticSequenceDataset test(tiny_seq_spec(), 40, 2);
  Rng prng(4);
  auto partition = data::iid_partition(train.size(), 4, prng);
  fl::FlConfig config;
  config.num_clients = 4;
  config.rounds = 6;
  config.local_iters = 1;
  config.batch_size = 8;
  config.participation_fraction = 0.5;  // 2 of 4 per round
  fl::FullSync strategy;
  fl::FederatedRunner runner(
      config, train, partition, test, seq_factory(),
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
      },
      strategy);
  const auto half = runner.run();

  fl::FlConfig full_config = config;
  full_config.participation_fraction = 1.0;
  fl::FullSync full_strategy;
  fl::FederatedRunner full_runner(
      full_config, train, partition, test, seq_factory(),
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
      },
      full_strategy);
  const auto full = full_runner.run();
  // Mean per-client traffic halves when only half the clients communicate.
  EXPECT_NEAR(half.total_bytes_per_client, 0.5 * full.total_bytes_per_client,
              1e-6 * full.total_bytes_per_client);
}

TEST(Participation, InvalidFractionThrows) {
  data::SyntheticSequenceDataset train(tiny_seq_spec(), 40, 1);
  data::SyntheticSequenceDataset test(tiny_seq_spec(), 20, 2);
  Rng prng(5);
  auto partition = data::iid_partition(train.size(), 2, prng);
  fl::FlConfig config;
  config.num_clients = 2;
  config.participation_fraction = 0.0;
  fl::FullSync strategy;
  EXPECT_THROW(
      fl::FederatedRunner(config, train, partition, test, seq_factory(),
                          [](nn::Module& m) {
                            return std::make_unique<optim::Sgd>(
                                m.parameters(), 0.05);
                          },
                          strategy),
      Error);
}

TEST(GradClipInRunner, StabilizesRecurrentTraining) {
  // Smoke test: the clip path executes and training remains finite.
  data::SyntheticSequenceDataset train(tiny_seq_spec(), 80, 1);
  data::SyntheticSequenceDataset test(tiny_seq_spec(), 40, 2);
  Rng prng(6);
  auto partition = data::iid_partition(train.size(), 3, prng);
  fl::FlConfig config;
  config.num_clients = 3;
  config.rounds = 6;
  config.local_iters = 2;
  config.batch_size = 8;
  config.grad_clip_norm = 1.0;
  fl::FullSync strategy;
  fl::FederatedRunner runner(
      config, train, partition, test, seq_factory(),
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.5);
      },
      strategy);
  const auto result = runner.run();
  for (float v : result.final_global_params) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace apf
