// Coverage for smaller surfaces: evaluation modes, optimizer details, Gaia/CMFL
// option paths, the runner's eval cadence and LR-schedule hook, Sequential
// accessors and the logging switch.
#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <numeric>

#include "compress/cmfl.h"
#include "compress/gaia.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/evaluate.h"
#include "fl/runner.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/rng.h"

namespace apf {
namespace {

TEST(EvaluateAccuracy, RestoresTrainingMode) {
  data::SyntheticImageSpec spec;
  spec.num_classes = 2;
  spec.channels = 1;
  spec.image_size = 6;
  data::SyntheticImageDataset ds(spec, 8, 1);
  Rng rng(2);
  auto net = nn::make_mlp(rng, 36, 8, 1, 2);
  auto wrapper = std::make_unique<nn::Sequential>();
  wrapper->add(std::make_unique<nn::Flatten>());
  wrapper->add(std::move(net));
  wrapper->set_training(true);
  fl::evaluate_accuracy(*wrapper, ds);
  EXPECT_TRUE(wrapper->training());
  wrapper->set_training(false);
  fl::evaluate_accuracy(*wrapper, ds);
  EXPECT_FALSE(wrapper->training());
}

TEST(Adam, WeightDecayShrinksParameters) {
  // Pure decay: zero loss gradient, weight decay only.
  Rng rng(3);
  nn::Linear fc(2, 2, rng);
  fc.weight().value.fill(1.f);
  optim::Adam adam(fc.parameters(), 0.01, 0.9, 0.999, 1e-8,
                   /*weight_decay=*/0.1);
  for (int i = 0; i < 50; ++i) {
    adam.zero_grad();
    adam.step();
  }
  EXPECT_LT(fc.weight().value[0], 1.f);
}

TEST(Adam, ResetStateRestartsBiasCorrection) {
  Rng rng(4);
  nn::Linear fc(1, 1, rng, false);
  optim::Adam adam(fc.parameters(), 0.01);
  fc.parameters()[0].param->grad[0] = 1.f;
  adam.step();
  adam.reset_state();
  // After a reset the first step is again ~lr in magnitude.
  const float before = fc.parameters()[0].param->value[0];
  fc.parameters()[0].param->grad[0] = 1.f;
  adam.step();
  EXPECT_NEAR(fc.parameters()[0].param->value[0], before - 0.01f, 1e-5f);
}

TEST(Gaia, FixedThresholdIgnoresRound) {
  compress::GaiaOptions opt;
  opt.significance_threshold = 0.4;
  opt.decay_threshold = false;
  compress::GaiaSync strategy(opt);
  strategy.init(std::vector<float>{10.f}, 1);
  // 30% relative change: insignificant under 0.4 at ANY round index.
  auto params = std::vector<std::vector<float>>{{13.f}};
  strategy.synchronize(fl::RoundId(100), params, {1.0});
  EXPECT_FLOAT_EQ(strategy.global_params()[0], 10.f);
}

TEST(Gaia, DecayingThresholdAdmitsLater) {
  compress::GaiaOptions opt;
  opt.significance_threshold = 0.4;
  opt.decay_threshold = true;  // threshold / sqrt(round)
  compress::GaiaSync strategy(opt);
  strategy.init(std::vector<float>{10.f}, 1);
  // Same 30% change is significant once 0.4/sqrt(round) < 0.3 (round >= 2).
  auto params = std::vector<std::vector<float>>{{13.f}};
  strategy.synchronize(fl::RoundId(4), params, {1.0});
  EXPECT_FLOAT_EQ(strategy.global_params()[0], 13.f);
}

TEST(Cmfl, AcceptanceRateTracksFiltering) {
  compress::CmflSync strategy;
  strategy.init(std::vector<float>(4, 0.f), 1);
  auto params = std::vector<std::vector<float>>{std::vector<float>(4, 1.f)};
  strategy.synchronize(fl::RoundId(1), params, {1.0});
  EXPECT_EQ(strategy.considered(), 1u);
  EXPECT_EQ(strategy.accepted(), 1u);
}

TEST(Sequential, LayerAccessors) {
  Rng rng(5);
  nn::Sequential net;
  net.add(std::make_unique<nn::Linear>(2, 3, rng), "fc");
  net.add(std::make_unique<nn::ReLU>(), "relu");
  EXPECT_EQ(net.size(), 2u);
  // The first layer is the Linear; its parameters are reachable.
  std::vector<nn::ParamRef> params;
  net.layer(0).collect_params("x.", params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "x.weight");
}

TEST(Module, PlainModulesHaveNoBuffers) {
  Rng rng(6);
  nn::Linear fc(2, 2, rng);
  EXPECT_TRUE(fc.buffers().empty());
}

TEST(Logging, LevelSwitch) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(before);
}

TEST(Logging, SinkCapturesWholeLinesAndRestores) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kWarn);
  std::ostringstream captured;
  std::streambuf* const stderr_buf = std::cerr.rdbuf(captured.rdbuf());
  APF_WARN("sink test " << 42);
  std::cerr.rdbuf(stderr_buf);  // back to stderr before `captured` dies
  set_log_level(before);
  const std::string line = captured.str();
  EXPECT_NE(line.find("[WARN]"), std::string::npos) << line;
  EXPECT_NE(line.find("sink test 42"), std::string::npos) << line;
  EXPECT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
}

data::SyntheticImageSpec runner_spec() {
  data::SyntheticImageSpec spec;
  spec.num_classes = 4;
  spec.channels = 1;
  spec.image_size = 8;
  spec.noise_stddev = 0.4;
  return spec;
}

fl::ModelFactory runner_factory() {
  return [] {
    Rng rng(999);
    auto net = std::make_unique<nn::Sequential>();
    net->add(std::make_unique<nn::Flatten>(), "flatten");
    net->add(nn::make_mlp(rng, 64, 12, 1, 4), "mlp");
    return net;
  };
}

TEST(Runner, EvalCadenceMarksSkippedRounds) {
  data::SyntheticImageDataset train(runner_spec(), 48, 1);
  data::SyntheticImageDataset test(runner_spec(), 24, 2);
  Rng prng(7);
  auto partition = data::iid_partition(train.size(), 2, prng);
  fl::FlConfig config;
  config.num_clients = 2;
  config.rounds = 7;
  config.local_iters = 1;
  config.batch_size = 8;
  config.eval_every = 3;
  fl::FullSync strategy;
  fl::FederatedRunner runner(
      config, train, partition, test, runner_factory(),
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
      },
      strategy);
  const auto result = runner.run();
  ASSERT_EQ(result.rounds.size(), 7u);
  for (const auto& r : result.rounds) {
    const bool should_eval =
        r.round.value() % 3 == 0 || r.round == fl::RoundId(7);
    EXPECT_EQ(r.test_accuracy >= 0.0, should_eval) << "round " << r.round;
  }
}

TEST(Runner, LrScheduleChangesTrajectory) {
  data::SyntheticImageDataset train(runner_spec(), 48, 1);
  data::SyntheticImageDataset test(runner_spec(), 24, 2);
  auto run_with = [&](const optim::LrSchedule* schedule) {
    Rng prng(8);
    auto partition = data::iid_partition(train.size(), 2, prng);
    fl::FlConfig config;
    config.num_clients = 2;
    config.rounds = 6;
    config.local_iters = 2;
    config.batch_size = 8;
    fl::FullSync strategy;
    fl::FederatedRunner runner(
        config, train, partition, test, runner_factory(),
        [](nn::Module& m) {
          return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
        },
        strategy);
    if (schedule != nullptr) runner.set_lr_schedule(schedule);
    return runner.run().final_global_params;
  };
  // A schedule pinned at the optimizer's own rate reproduces the default...
  const optim::MultiplicativeDecayLr same(0.05, 1.0, 1);
  EXPECT_EQ(run_with(nullptr), run_with(&same));
  // ...and a different rate produces a different trajectory.
  const optim::MultiplicativeDecayLr faster(0.2, 1.0, 1);
  EXPECT_NE(run_with(nullptr), run_with(&faster));
}

TEST(Runner, TrainLossDecreasesOnAverage) {
  data::SyntheticImageDataset train(runner_spec(), 96, 1);
  data::SyntheticImageDataset test(runner_spec(), 24, 2);
  Rng prng(9);
  auto partition = data::iid_partition(train.size(), 2, prng);
  fl::FlConfig config;
  config.num_clients = 2;
  config.rounds = 20;
  config.local_iters = 3;
  config.batch_size = 8;
  config.eval_every = 20;
  fl::FullSync strategy;
  fl::FederatedRunner runner(
      config, train, partition, test, runner_factory(),
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.1, 0.9);
      },
      strategy);
  const auto result = runner.run();
  const double early = result.rounds[1].train_loss;
  const double late = result.rounds.back().train_loss;
  EXPECT_LT(late, early);
}

}  // namespace
}  // namespace apf
