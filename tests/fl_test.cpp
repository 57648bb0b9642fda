#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "compress/gaia.h"
#include "compress/randk.h"
#include "compress/topk.h"
#include "core/apf_manager.h"
#include "data/loader.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/evaluate.h"
#include "fl/flat_view.h"
#include "fl/runner.h"
#include "fl/sync_strategy.h"
#include "nn/batchnorm.h"
#include "nn/conv_layers.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/param_vector.h"
#include "optim/optimizer.h"
#include "transport/network.h"
#include "util/error.h"
#include "util/rng.h"

namespace apf {
namespace {

using data::SyntheticImageDataset;
using data::SyntheticImageSpec;

TEST(NetworkModel, TransferSeconds) {
  transport::NetworkModel net;  // 9 down / 3 up Mbps
  // 1 MB down at 9 Mbps = 8e6 bits / 9e6 bps.
  const util::ByteCount mb(1000000);
  EXPECT_NEAR(net.client_download_seconds(mb), 8.0 / 9.0, 1e-9);
  EXPECT_NEAR(net.client_upload_seconds(mb), 8.0 / 3.0, 1e-9);
  EXPECT_NEAR(net.server_seconds(mb), 8e6 / 1e10, 1e-12);
}

TEST(FlatParamView, GatherScatterRoundTrip) {
  Rng rng(1);
  auto net = nn::make_mlp(rng, 4, 8, 1, 3);
  fl::FlatParamView view(*net);
  EXPECT_EQ(view.dim(), net->parameter_count());
  std::vector<float> flat;
  view.gather(flat);
  EXPECT_EQ(flat, nn::flatten_params(*net));
  for (auto& v : flat) v += 1.f;
  view.scatter(flat);
  EXPECT_EQ(nn::flatten_params(*net), flat);
}

TEST(FlatParamView, PinMaskedRestoresAnchors) {
  Rng rng(2);
  auto net = nn::make_mlp(rng, 3, 4, 1, 2);
  fl::FlatParamView view(*net);
  std::vector<float> anchor(view.dim(), 7.f);
  Bitmap mask(view.dim(), false);
  mask.set(0, true);
  mask.set(view.dim() - 1, true);
  view.pin_masked(mask, anchor);
  const auto flat = nn::flatten_params(*net);
  EXPECT_EQ(flat.front(), 7.f);
  EXPECT_EQ(flat.back(), 7.f);
  // An unmasked scalar keeps its trained value.
  EXPECT_NE(flat[1], 7.f);
}

TEST(FlatParamView, PinMaskedMatchesReferenceAcrossUnalignedSegments) {
  Rng rng(4);
  // Segments of 133, 19, 361, 19, 95 and 5 scalars: no boundary after the
  // first falls on a 64-bit word boundary of the flat mask.
  auto net = nn::make_mlp(rng, 7, 19, 2, 5);
  fl::FlatParamView view(*net);
  std::size_t offset = 0;
  std::size_t unaligned = 0;
  for (const auto& p : net->parameters()) {
    offset += p.param->numel();
    if (offset % 64 != 0) ++unaligned;
  }
  ASSERT_EQ(unaligned, net->parameters().size());
  const std::size_t dim = view.dim();
  std::vector<float> anchor(dim);
  for (auto& v : anchor) v = rng.uniform_float(5.f, 6.f);

  std::vector<Bitmap> masks = {Bitmap(dim, false), Bitmap(dim, true)};
  Bitmap edges(dim, false);
  for (std::size_t j = 0; j < dim; j += 64) {
    edges.set(j, true);
    if (j + 63 < dim) edges.set(j + 63, true);
  }
  masks.push_back(edges);
  for (const double density : {0.1, 0.39, 0.9}) {
    Bitmap random(dim, false);
    for (std::size_t j = 0; j < dim; ++j) random.set(j, rng.bernoulli(density));
    masks.push_back(random);
  }
  for (std::size_t m = 0; m < masks.size(); ++m) {
    const Bitmap& mask = masks[m];
    std::vector<float> before(dim);
    for (auto& v : before) v = rng.uniform_float(-1.f, 1.f);
    view.scatter(before);
    std::vector<float> expected = before;
    for (std::size_t j = 0; j < dim; ++j) {
      if (mask.get(j)) expected[j] = anchor[j];
    }
    view.pin_masked(mask, anchor);
    std::vector<float> after;
    view.gather(after);
    ASSERT_EQ(std::memcmp(after.data(), expected.data(), dim * sizeof(float)),
              0)
        << "mask " << m;
  }
}

TEST(FlatParamView, SizeMismatchThrows) {
  Rng rng(3);
  auto net = nn::make_mlp(rng, 3, 4, 1, 2);
  fl::FlatParamView view(*net);
  std::vector<float> wrong(view.dim() + 1);
  EXPECT_THROW(view.scatter(wrong), Error);
}

SyntheticImageSpec tiny_spec() {
  SyntheticImageSpec spec;
  spec.num_classes = 4;
  spec.channels = 1;
  spec.image_size = 8;
  spec.noise_stddev = 0.3;
  return spec;
}

fl::ModelFactory tiny_mlp_factory(std::size_t in, std::size_t classes) {
  return [in, classes] {
    Rng rng(4242);
    auto net = std::make_unique<nn::Sequential>();
    net->add(std::make_unique<nn::Flatten>(), "flatten");
    auto mlp = nn::make_mlp(rng, in, 16, 1, classes);
    net->add(std::move(mlp), "mlp");
    return net;
  };
}

TEST(Evaluate, PerfectModelScoresOne) {
  // A model that ignores input and always predicts class 0 scores exactly
  // the class-0 frequency.
  SyntheticImageDataset ds(tiny_spec(), 40, 1);
  Rng rng(5);
  auto net = std::make_unique<nn::Sequential>();
  net->add(std::make_unique<nn::Flatten>());
  auto fc = std::make_unique<nn::Linear>(64, 4, rng);
  fc->weight().value.zero();
  fc->bias()->value = Tensor({4}, std::vector<float>{1.f, 0.f, 0.f, 0.f});
  net->add(std::move(fc));
  EXPECT_NEAR(fl::evaluate_accuracy(*net, ds), 0.25, 1e-9);
}

TEST(Runner, SingleClientFullSyncMatchesCentralizedSgd) {
  // With one client, Fs = 1 and FullSync, the FL loop is plain SGD; the
  // global model after k rounds must match a hand-rolled training loop on
  // the same batches.
  SyntheticImageDataset train(tiny_spec(), 32, 1);
  SyntheticImageDataset test(tiny_spec(), 16, 2);

  fl::FlConfig config;
  config.num_clients = 1;
  config.rounds = 5;
  config.local_iters = 1;
  config.batch_size = 8;
  config.seed = 77;
  config.eval_every = 100;  // skip most evals

  std::vector<std::size_t> all(train.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  data::Partition partition = {all};

  auto factory = tiny_mlp_factory(64, 4);
  fl::FullSync strategy;
  fl::FederatedRunner runner(
      config, train, partition, test, factory,
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.1);
      },
      strategy);
  const auto result = runner.run();

  // Hand-rolled replica: same model init, same loader seed stream.
  auto net = factory();
  optim::Sgd sgd(net->parameters(), 0.1);
  Rng seed_rng(config.seed);
  data::DataLoader loader(train, all, config.batch_size, seed_rng.split());
  for (int k = 0; k < 5; ++k) {
    const auto batch = loader.next_batch();
    sgd.zero_grad();
    const Tensor logits = net->forward(batch.inputs);
    const auto loss = nn::softmax_cross_entropy(logits, batch.labels);
    net->backward(loss.grad_logits);
    sgd.step();
  }
  const auto expect = nn::flatten_params(*net);
  ASSERT_EQ(result.final_global_params.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_NEAR(result.final_global_params[i], expect[i], 1e-6f) << i;
  }
}

TEST(Runner, RecordsBytesAndTime) {
  SyntheticImageDataset train(tiny_spec(), 64, 1);
  SyntheticImageDataset test(tiny_spec(), 16, 2);
  Rng prng(6);
  auto partition = data::iid_partition(train.size(), 4, prng);

  fl::FlConfig config;
  config.num_clients = 4;
  config.rounds = 3;
  config.local_iters = 2;
  config.batch_size = 8;
  config.eval_every = 1;

  auto factory = tiny_mlp_factory(64, 4);
  fl::FullSync strategy;
  fl::FederatedRunner runner(
      config, train, partition, test, factory,
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
      },
      strategy);
  const auto result = runner.run();
  ASSERT_EQ(result.rounds.size(), 3u);
  const std::size_t dim = factory()->parameter_count();
  // Each direction is a measured APD1 frame: 8-byte header + dim values.
  const double frame = 8.0 + 4.0 * static_cast<double>(dim);
  for (const auto& r : result.rounds) {
    EXPECT_DOUBLE_EQ(r.bytes_per_client, 2.0 * frame);  // up + down
    EXPECT_GT(r.round_seconds, 0.0);
    EXPECT_GE(r.test_accuracy, 0.0);
  }
  EXPECT_NEAR(result.total_bytes_per_client, 3 * 2.0 * frame, 1e-6);
  EXPECT_GT(result.total_seconds, 0.0);
}

TEST(Runner, DeterministicAcrossRuns) {
  SyntheticImageDataset train(tiny_spec(), 64, 1);
  SyntheticImageDataset test(tiny_spec(), 16, 2);
  auto run_once = [&] {
    Rng prng(7);
    auto partition = data::iid_partition(train.size(), 2, prng);
    fl::FlConfig config;
    config.num_clients = 2;
    config.rounds = 4;
    config.local_iters = 2;
    config.batch_size = 8;
    fl::FullSync strategy;
    fl::FederatedRunner runner(
        config, train, partition, test, tiny_mlp_factory(64, 4),
        [](nn::Module& m) {
          return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
        },
        strategy);
    return runner.run().final_global_params;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Runner, StragglersDroppedUnderDropPolicy) {
  SyntheticImageDataset train(tiny_spec(), 64, 1);
  SyntheticImageDataset test(tiny_spec(), 16, 2);
  Rng prng(8);
  auto partition = data::iid_partition(train.size(), 2, prng);

  fl::FlConfig config;
  config.num_clients = 2;
  config.rounds = 2;
  config.local_iters = 4;
  config.batch_size = 8;
  config.workload_fraction = {1.0, 0.25};  // client 1 is a straggler
  config.straggler_policy = fl::StragglerPolicy::kDrop;

  // With the straggler dropped every round, the global trajectory must be
  // identical to training client 0 alone on its own partition.
  fl::FullSync strategy;
  fl::FederatedRunner runner(
      config, train, partition, test, tiny_mlp_factory(64, 4),
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
      },
      strategy);
  const auto dropped = runner.run();

  fl::FlConfig solo = config;
  solo.num_clients = 1;
  solo.workload_fraction = {1.0};
  data::Partition solo_partition = {partition[0]};
  fl::FullSync solo_strategy;
  fl::FederatedRunner solo_runner(
      solo, train, solo_partition, test, tiny_mlp_factory(64, 4),
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
      },
      solo_strategy);
  const auto alone = solo_runner.run();
  EXPECT_EQ(dropped.final_global_params, alone.final_global_params);
}

TEST(Runner, LearnsSeparableTask) {
  // End-to-end sanity: 4-class synthetic images, 3 clients, FedAvg; final
  // accuracy should be far above chance.
  SyntheticImageSpec spec = tiny_spec();
  spec.noise_stddev = 0.2;
  SyntheticImageDataset train(spec, 120, 1);
  SyntheticImageDataset test(spec, 60, 2);
  Rng prng(9);
  auto partition = data::iid_partition(train.size(), 3, prng);

  fl::FlConfig config;
  config.num_clients = 3;
  config.rounds = 30;
  config.local_iters = 4;
  config.batch_size = 16;
  config.eval_every = 30;

  fl::FullSync strategy;
  fl::FederatedRunner runner(
      config, train, partition, test, tiny_mlp_factory(64, 4),
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.1, 0.9);
      },
      strategy);
  const auto result = runner.run();
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(FullSync, StreamHooksMatchBatchSynchronize) {
  // Driving the StreamSync hooks by hand (the bus path) must land on the
  // same global model and pull frame as the batch synchronize() driver.
  Rng rng(21);
  std::vector<float> init(17);
  for (auto& v : init) v = rng.uniform_float(-0.5f, 0.5f);
  std::vector<std::vector<float>> params(3, init);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  for (std::size_t i = 0; i < params.size(); ++i) {
    for (auto& v : params[i]) v += static_cast<float>(i) * 0.25f;
  }

  fl::FullSync batch;
  batch.init(init, 3);
  auto batch_params = params;
  const auto result = batch.synchronize(fl::RoundId(1), batch_params, weights);

  fl::FullSync streamed;
  streamed.init(init, 3);
  fl::StreamSync* stream = streamed.stream_sync();
  ASSERT_NE(stream, nullptr);
  const double weight_total = 1.0 + 0.0 + 3.0;
  stream->begin_fold(fl::RoundId(1));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto frame = stream->encode_push(fl::ClientId(i), params[i]);
    EXPECT_EQ(fl::ByteCount(frame.size()), result.bytes_up[i]);
    if (weights[i] > 0.0) stream->fold_push(fl::ClientId(i), frame, weights[i] / weight_total);
  }
  const auto pull = stream->finish_fold();
  EXPECT_EQ(pull, result.frames_down[0]);
  std::vector<float> rebuilt;
  stream->apply_pull(pull, rebuilt);
  EXPECT_EQ(rebuilt, batch_params[0]);
  EXPECT_TRUE(std::equal(streamed.global_params().begin(),
                         streamed.global_params().end(),
                         batch.global_params().begin()));
}

TEST(Runner, SmallestParticipationClampsToOneClientWithFiniteBytes) {
  // Issue #7: a participation fraction whose rounded subset would be zero
  // must clamp to one participant, and the per-participant byte figure must
  // be the exact measured traffic — never the NaN/Inf a zero-participant
  // division would produce.
  SyntheticImageDataset train(tiny_spec(), 80, 1);
  SyntheticImageDataset test(tiny_spec(), 16, 2);
  Rng prng(11);
  auto partition = data::iid_partition(train.size(), 10, prng);

  fl::FlConfig config;
  config.num_clients = 10;
  config.rounds = 2;
  config.local_iters = 1;
  config.batch_size = 8;
  config.eval_every = 100;
  config.participation_fraction = 0.01;  // 0.01 * 10 rounds to 0 -> clamp

  auto factory = tiny_mlp_factory(64, 4);
  fl::FullSync strategy;
  fl::FederatedRunner runner(
      config, train, partition, test, factory,
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
      },
      strategy);
  const auto result = runner.run();
  const std::size_t dim = factory()->parameter_count();
  const double frame = 8.0 + 4.0 * static_cast<double>(dim);
  ASSERT_EQ(result.rounds.size(), 2u);
  for (const auto& r : result.rounds) {
    EXPECT_EQ(r.participants, 1u);
    EXPECT_TRUE(std::isfinite(r.bytes_per_participant));
    // The lone participant ships one dense frame each way.
    EXPECT_DOUBLE_EQ(r.bytes_per_participant, 2.0 * frame);
    // Amortized over all 10 clients, the same traffic is a tenth of that.
    EXPECT_DOUBLE_EQ(r.bytes_per_client, 2.0 * frame / 10.0);
  }
}

TEST(Runner, RejectsNonPositiveBandwidthAtConstruction) {
  // Issue #7: a zero/negative bandwidth must be rejected when the runner is
  // built (with config context), not when the first transfer is priced
  // mid-round. APF_CHECK fires in every build type.
  SyntheticImageDataset train(tiny_spec(), 16, 1);
  SyntheticImageDataset test(tiny_spec(), 8, 2);
  Rng prng(12);
  auto partition = data::iid_partition(train.size(), 2, prng);
  auto opt_factory = [](nn::Module& m) {
    return std::make_unique<optim::Sgd>(m.parameters(), 0.1);
  };
  fl::FullSync strategy;
  for (double bad : {0.0, -9.0}) {
    fl::FlConfig config;
    config.num_clients = 2;
    config.network.client_upload_mbps = bad;
    EXPECT_THROW(fl::FederatedRunner(config, train, partition, test,
                                     tiny_mlp_factory(64, 4), opt_factory,
                                     strategy),
                 Error);
    config.network = transport::NetworkModel{};
    config.network.client_download_mbps = bad;
    EXPECT_THROW(fl::FederatedRunner(config, train, partition, test,
                                     tiny_mlp_factory(64, 4), opt_factory,
                                     strategy),
                 Error);
    config.network = transport::NetworkModel{};
    config.network.server_bandwidth_mbps = bad;
    EXPECT_THROW(fl::FederatedRunner(config, train, partition, test,
                                     tiny_mlp_factory(64, 4), opt_factory,
                                     strategy),
                 Error);
  }
}

/// Batch-only stand-in: keeps its initial model and reports fixed per-client
/// traffic, with real frames of those sizes or (`with_frames` false) byte
/// counts alone.
class FixedTrafficStrategy : public fl::SyncStrategy {
 public:
  FixedTrafficStrategy(std::vector<std::size_t> up,
                       std::vector<std::size_t> down, bool with_frames)
      : up_(std::move(up)), down_(std::move(down)), with_frames_(with_frames) {}

  void init(std::span<const float> initial_params,
            std::size_t /*num_clients*/) override {
    global_.assign(initial_params.begin(), initial_params.end());
  }
  Result synchronize(fl::RoundId /*round*/,
                     std::vector<std::vector<float>>& client_params,
                     const std::vector<double>& /*weights*/) override {
    Result result;
    for (std::size_t i = 0; i < client_params.size(); ++i) {
      client_params[i] = global_;
      result.bytes_up.push_back(fl::ByteCount(up_[i]));
      result.bytes_down.push_back(fl::ByteCount(down_[i]));
      if (with_frames_) {
        result.frames_up.emplace_back(up_[i], std::uint8_t{0});
        result.frames_down.emplace_back(down_[i], std::uint8_t{0});
      }
    }
    return result;
  }
  std::span<const float> global_params() const override { return global_; }
  std::string name() const override { return "FixedTraffic"; }

 private:
  std::vector<std::size_t> up_, down_;
  bool with_frames_;
  std::vector<float> global_;
};

TEST(Runner, RejectsStrategyThatReportsBytesWithoutFrames) {
  SyntheticImageDataset train(tiny_spec(), 32, 1);
  SyntheticImageDataset test(tiny_spec(), 8, 2);
  Rng prng(13);
  auto partition = data::iid_partition(train.size(), 2, prng);

  fl::FlConfig config;
  config.num_clients = 2;
  config.rounds = 2;
  config.local_iters = 1;
  config.batch_size = 8;
  config.eval_every = 100;

  FixedTrafficStrategy strategy({123, 123}, {45, 45}, /*with_frames=*/false);
  fl::FederatedRunner runner(
      config, train, partition, test, tiny_mlp_factory(64, 4),
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
      },
      strategy);
  try {
    runner.run();
    ADD_FAILURE() << "a Result with bytes but no frames was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("FixedTraffic"), std::string::npos) << what;
    EXPECT_NE(what.find("without one push and one pull frame"),
              std::string::npos)
        << what;
  }
}

TEST(Runner, PartitionSizeMismatchThrows) {
  SyntheticImageDataset train(tiny_spec(), 16, 1);
  SyntheticImageDataset test(tiny_spec(), 8, 2);
  fl::FlConfig config;
  config.num_clients = 3;
  data::Partition partition(2);  // wrong
  fl::FullSync strategy;
  EXPECT_THROW(
      fl::FederatedRunner(config, train, partition, test,
                          tiny_mlp_factory(64, 4),
                          [](nn::Module& m) {
                            return std::make_unique<optim::Sgd>(
                                m.parameters(), 0.1);
                          },
                          strategy),
      Error);
}

TEST(Runner, SyncRoundTimeIsMaxPerClientCompletion) {
  // Round-time bugfix pin: the round ends at max_i(compute_i + comm_i), not
  // at max_compute + max_comm. Client 0 computes slowly but ships few bytes;
  // client 1 computes fast but ships many — under the old model the round
  // cost the slow compute PLUS the big upload, as if one client owned both.
  SyntheticImageDataset train(tiny_spec(), 32, 1);
  SyntheticImageDataset test(tiny_spec(), 8, 2);
  Rng prng(14);
  auto partition = data::iid_partition(train.size(), 2, prng);

  fl::FlConfig config;
  config.num_clients = 2;
  config.rounds = 1;
  config.local_iters = 1;
  config.batch_size = 8;
  config.eval_every = 100;
  config.compute_seconds_per_iter = 1.0;
  config.compute_multiplier = {8.0, 1.0};

  FixedTrafficStrategy strategy({1000, 100000}, {0, 0}, /*with_frames=*/true);
  fl::FederatedRunner runner(
      config, train, partition, test, tiny_mlp_factory(64, 4),
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
      },
      strategy);
  const auto result = runner.run();
  ASSERT_EQ(result.rounds.size(), 1u);

  const double comm0 =
      config.network.client_upload_seconds(util::ByteCount(1000));
  const double comm1 =
      config.network.client_upload_seconds(util::ByteCount(100000));
  const double server = config.network.server_seconds(util::ByteCount(101000));
  const double completion =
      std::max({8.0 + comm0, 1.0 + comm1, 8.0 + server});
  const double old_model = 8.0 + std::max(comm1, server);
  EXPECT_DOUBLE_EQ(result.rounds[0].round_seconds, completion);
  // The two maxima belong to different clients here, so the fixed model is
  // strictly cheaper than the old glued-together one.
  EXPECT_LT(result.rounds[0].round_seconds, old_model);
  // Synchronous rounds carry no staleness bookkeeping.
  EXPECT_TRUE(result.rounds[0].staleness.empty());
}

// Shared setup for the async-mode tests: a straggler distribution over a
// small MLP task (no BatchNorm buffers — async requires dense state only).
fl::SimulationResult run_async_case(std::size_t worker_threads,
                                    std::size_t rounds,
                                    std::vector<double> multipliers,
                                    std::size_t goal_k, double timeout) {
  SyntheticImageDataset train(tiny_spec(), 64, 1);
  SyntheticImageDataset test(tiny_spec(), 16, 2);
  Rng prng(15);
  const std::size_t n = multipliers.size();
  auto partition = data::iid_partition(train.size(), n, prng);

  fl::FlConfig config;
  config.num_clients = n;
  config.rounds = rounds;
  config.local_iters = 1;
  config.batch_size = 8;
  config.eval_every = 4;
  config.compute_seconds_per_iter = 0.1;
  config.compute_multiplier = std::move(multipliers);
  config.aggregation_mode = fl::AggregationMode::kAsyncBuffered;
  config.async_goal_k = goal_k;
  config.async_timeout_seconds = timeout;
  config.worker_threads = worker_threads;

  fl::FullSync strategy;
  fl::FederatedRunner runner(
      config, train, partition, test, tiny_mlp_factory(64, 4),
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
      },
      strategy);
  return runner.run();
}

TEST(Runner, AsyncBufferedIsBitIdenticalAcrossWorkerThreads) {
  // The async schedule (arrivals, commits, staleness) is simulated time, not
  // wall-clock, and training uses the same per-client-slot commit protocol
  // as the sync path — so the whole SimulationResult must be bit-identical
  // for any lane count.
  const auto a = run_async_case(1, 8, {1.0, 3.0, 1.0, 9.0, 1.0}, 3, 1.0);
  const auto b = run_async_case(4, 8, {1.0, 3.0, 1.0, 9.0, 1.0}, 3, 1.0);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].train_loss, b.rounds[r].train_loss) << r;
    EXPECT_EQ(a.rounds[r].bytes_per_client, b.rounds[r].bytes_per_client)
        << r;
    EXPECT_EQ(a.rounds[r].round_seconds, b.rounds[r].round_seconds) << r;
    EXPECT_EQ(a.rounds[r].participants, b.rounds[r].participants) << r;
    EXPECT_EQ(a.rounds[r].test_accuracy, b.rounds[r].test_accuracy) << r;
    EXPECT_EQ(a.rounds[r].staleness, b.rounds[r].staleness) << r;
  }
  EXPECT_EQ(a.final_global_params, b.final_global_params);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.total_bytes_per_client, b.total_bytes_per_client);
}

TEST(Runner, AsyncTimeoutCommitsShortAndLatePushCarriesOver) {
  // Client 1 computes 100x slower than client 0. With goal-K = 2 and a
  // timeout well short of the straggler's finish, round 1 must commit with
  // just client 0 (timeout path), the straggler's frame carrying over round
  // after round until its arrival falls inside a window — where it folds
  // with the staleness it accumulated.
  const auto result = run_async_case(1, 14, {1.0, 100.0}, 2, 1.0);
  ASSERT_EQ(result.rounds.size(), 14u);
  // Round 1: only the fast client made the deadline; its push was fresh.
  EXPECT_EQ(result.rounds[0].participants, 1u);
  ASSERT_EQ(result.rounds[0].staleness.size(), 1u);
  EXPECT_EQ(result.rounds[0].staleness[0].first, fl::ClientId(0));
  EXPECT_EQ(result.rounds[0].staleness[0].second, 0u);
  // The straggler eventually folds, stale by at least one window.
  bool straggler_folded = false;
  for (const auto& r : result.rounds) {
    for (const auto& [client, staleness] : r.staleness) {
      if (client == fl::ClientId(1)) {
        straggler_folded = true;
        EXPECT_GE(staleness, 1u);
        // Its window folded both the straggler and a fresh fast push.
        EXPECT_EQ(r.participants, 2u);
      }
    }
  }
  EXPECT_TRUE(straggler_folded);
  // Every round still accounts traffic and time.
  for (const auto& r : result.rounds) {
    EXPECT_GT(r.round_seconds, 0.0);
    EXPECT_TRUE(std::isfinite(r.bytes_per_client));
  }
}

TEST(Runner, AsyncRequiresStreamCapableStrategyAndValidConfig) {
  SyntheticImageDataset train(tiny_spec(), 32, 1);
  SyntheticImageDataset test(tiny_spec(), 8, 2);
  Rng prng(16);
  auto partition = data::iid_partition(train.size(), 2, prng);
  auto opt_factory = [](nn::Module& m) {
    return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
  };

  // A batch-only strategy cannot serve the async path: run() must reject it
  // up front rather than mis-aggregate.
  fl::FlConfig config;
  config.num_clients = 2;
  config.rounds = 1;
  config.aggregation_mode = fl::AggregationMode::kAsyncBuffered;
  FixedTrafficStrategy batch_only({8, 8}, {8, 8}, /*with_frames=*/true);
  fl::FederatedRunner runner(config, train, partition, test,
                             tiny_mlp_factory(64, 4), opt_factory,
                             batch_only);
  EXPECT_THROW(runner.run(), Error);

  // Async aggregates dense full-model pushes: a freezing strategy (its
  // frozen_mask() is non-null after init) and a model with BatchNorm
  // buffers are rejected by run() before round 1 is observed.
  auto run_rejects_before_round_one = [&](fl::FederatedRunner& r) {
    bool observed = false;
    r.set_observer([&](fl::RoundId, std::span<const float>,
                       const std::vector<std::vector<float>>&) {
      observed = true;
    });
    EXPECT_THROW(r.run(), Error);
    EXPECT_FALSE(observed);
  };
  core::ApfManager freezing;
  fl::FederatedRunner freezing_runner(config, train, partition, test,
                                      tiny_mlp_factory(64, 4), opt_factory,
                                      freezing);
  run_rejects_before_round_one(freezing_runner);
  fl::FullSync strategy;
  auto bn_factory = [] {
    Rng rng(4243);
    auto net = std::make_unique<nn::Sequential>();
    net->add(std::make_unique<nn::Conv2d>(1, 2, 3, rng, 1, 1), "conv");
    net->add(std::make_unique<nn::BatchNorm2d>(2), "bn");
    net->add(std::make_unique<nn::Flatten>(), "flatten");
    net->add(std::make_unique<nn::Linear>(128, 4, rng), "fc");
    return net;
  };
  fl::FederatedRunner bn_runner(config, train, partition, test, bn_factory,
                                opt_factory, strategy);
  run_rejects_before_round_one(bn_runner);

  // Config validation stays at construction: a mis-sized straggler
  // distribution, broken async knobs, an out-of-range workload fraction or
  // a zero evaluation period never reach the round loop.
  fl::FlConfig bad = config;
  bad.compute_multiplier = {1.0, 2.0, 3.0};  // 3 entries for 2 clients
  EXPECT_THROW(fl::FederatedRunner(bad, train, partition, test,
                                   tiny_mlp_factory(64, 4), opt_factory,
                                   strategy),
               Error);
  bad = config;
  bad.compute_multiplier = {1.0, 0.0};
  EXPECT_THROW(fl::FederatedRunner(bad, train, partition, test,
                                   tiny_mlp_factory(64, 4), opt_factory,
                                   strategy),
               Error);
  bad = config;
  bad.async_goal_k = 3;  // > num_clients
  EXPECT_THROW(fl::FederatedRunner(bad, train, partition, test,
                                   tiny_mlp_factory(64, 4), opt_factory,
                                   strategy),
               Error);
  bad = config;
  bad.async_timeout_seconds = -1.0;
  EXPECT_THROW(fl::FederatedRunner(bad, train, partition, test,
                                   tiny_mlp_factory(64, 4), opt_factory,
                                   strategy),
               Error);
  for (const double frac : {0.0, -0.5, 1.5}) {
    bad = config;
    bad.workload_fraction = {1.0, frac};
    EXPECT_THROW(fl::FederatedRunner(bad, train, partition, test,
                                     tiny_mlp_factory(64, 4), opt_factory,
                                     strategy),
                 Error);
  }
  bad = config;
  bad.eval_every = 0;  // round % eval_every would divide by zero
  EXPECT_THROW(fl::FederatedRunner(bad, train, partition, test,
                                   tiny_mlp_factory(64, 4), opt_factory,
                                   strategy),
               Error);
  // The per-iteration compute cost and the FedProx coefficient must be
  // finite and >= 0: a NaN cost would reach the sort over async arrival
  // times, and a NaN or negative mu would silently switch FedProx off.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double v : {std::nan(""), kInf, -kInf, -0.01}) {
    bad = config;
    bad.compute_seconds_per_iter = v;
    EXPECT_THROW(fl::FederatedRunner(bad, train, partition, test,
                                     tiny_mlp_factory(64, 4), opt_factory,
                                     strategy),
                 Error)
        << "compute_seconds_per_iter " << v;
    bad = config;
    bad.fedprox_mu = v;
    EXPECT_THROW(fl::FederatedRunner(bad, train, partition, test,
                                     tiny_mlp_factory(64, 4), opt_factory,
                                     strategy),
                 Error)
        << "fedprox_mu " << v;
  }
  bad = config;
  bad.compute_seconds_per_iter = 0.0;  // free compute is allowed
  bad.fedprox_mu = 0.0;
  EXPECT_NO_THROW(fl::FederatedRunner(bad, train, partition, test,
                                      tiny_mlp_factory(64, 4), opt_factory,
                                      strategy));
}

TEST(Runner, AsyncProbeRejectsSparsePushFormatsWithoutSideEffects) {
  // TopK, RandK and Gaia stream, so the async push-format probe reaches
  // them. Each must be rejected as "not dense" (not with a wire-decode or
  // begin_fold error), and the probe must leave the strategy as it was.
  SyntheticImageDataset train(tiny_spec(), 32, 1);
  SyntheticImageDataset test(tiny_spec(), 8, 2);
  Rng prng(16);
  auto partition = data::iid_partition(train.size(), 2, prng);
  fl::FlConfig config;
  config.num_clients = 2;
  config.rounds = 1;
  config.aggregation_mode = fl::AggregationMode::kAsyncBuffered;

  compress::TopKSync topk;
  compress::RandKSync randk;
  compress::GaiaSync gaia;
  for (compress::ErrorFeedbackSync* strategy :
       std::initializer_list<compress::ErrorFeedbackSync*>{&topk, &randk,
                                                           &gaia}) {
    fl::FederatedRunner runner(
        config, train, partition, test, tiny_mlp_factory(64, 4),
        [](nn::Module& m) {
          return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
        },
        *strategy);
    try {
      runner.run();
      ADD_FAILURE() << strategy->name() << " passed the dense probe";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(strategy->name() + " push frames are not dense"),
                std::string::npos)
          << what;
    }
    for (const auto& residual : strategy->residuals()) {
      for (const float r : residual) EXPECT_EQ(r, 0.f) << strategy->name();
    }
  }

  // Outside a round the sparsifiers refuse to encode before touching any
  // residual: an accepted push here would leave client 0 a nonzero one.
  topk.init(std::vector<float>(8, 0.f), 2);
  EXPECT_THROW(topk.encode_push(fl::ClientId(0), std::vector<float>(8, 1.f)),
               Error);
  EXPECT_EQ(topk.residuals(),
            std::vector<std::vector<float>>(2, std::vector<float>(8, 0.f)));
}

// ---- Evaluation one round behind ------------------------------------------

// The tiny MLP, counting its eval-mode forwards; each one takes a
// millisecond, so a posted evaluation is still in flight when the round's
// observer runs, and it throws when `throw_in_eval` is set.
struct EvalProbeState {
  std::atomic<int> eval_forwards{0};
  bool throw_in_eval = false;
};

class EvalProbe : public nn::Sequential {
 public:
  explicit EvalProbe(EvalProbeState& state) : state_(state) {}

  Tensor forward(const Tensor& input) override {
    if (!training()) {
      state_.eval_forwards.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (state_.throw_in_eval) throw Error("eval forward failed");
    }
    return nn::Sequential::forward(input);
  }

 private:
  EvalProbeState& state_;
};

fl::ModelFactory eval_probe_factory(EvalProbeState& state) {
  return [&state] {
    Rng rng(4242);
    auto net = std::make_unique<EvalProbe>(state);
    net->add(std::make_unique<nn::Flatten>(), "flatten");
    net->add(nn::make_mlp(rng, 64, 16, 1, 4), "mlp");
    return net;
  };
}

fl::FlConfig eval_probe_config(std::size_t rounds,
                               std::size_t worker_threads) {
  fl::FlConfig config;
  config.num_clients = 2;
  config.rounds = rounds;
  config.local_iters = 1;
  config.batch_size = 8;
  config.eval_every = 1;
  config.worker_threads = worker_threads;
  return config;
}

TEST(RunnerEvaluation, ObserverThrowWhileEvaluationIsPostedDrainsFirst) {
  SyntheticImageDataset train(tiny_spec(), 32, 1);
  SyntheticImageDataset test(tiny_spec(), 40, 2);
  Rng prng(21);
  const auto partition = data::iid_partition(train.size(), 2, prng);
  EvalProbeState state;
  fl::FullSync strategy;
  fl::FederatedRunner runner(
      eval_probe_config(3, 4), train, partition, test,
      eval_probe_factory(state),
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
      },
      strategy);
  runner.set_observer([](fl::RoundId round, std::span<const float>,
                         const std::vector<std::vector<float>>&) {
    if (round == fl::RoundId(1)) throw std::runtime_error("observer failed");
  });
  std::string message;
  try {
    runner.run();
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "observer failed");
  // Round 1's shards all ran before run() returned (one forward each), and
  // none runs afterwards.
  const int after_return = state.eval_forwards.load();
  EXPECT_EQ(after_return,
            static_cast<int>(fl::eval_shard_count(4, test.size())));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(state.eval_forwards.load(), after_return);
}

TEST(RunnerEvaluation, ThrowingEvalForwardFailsTheRun) {
  SyntheticImageDataset train(tiny_spec(), 32, 1);
  SyntheticImageDataset test(tiny_spec(), 40, 2);
  Rng prng(22);
  const auto partition = data::iid_partition(train.size(), 2, prng);
  // One round drains at the end of run(), three at the next evaluation.
  for (const std::size_t rounds : {1u, 3u}) {
    for (const std::size_t workers : {1u, 4u}) {
      EvalProbeState state;
      state.throw_in_eval = true;
      fl::FullSync strategy;
      fl::FederatedRunner runner(
          eval_probe_config(rounds, workers), train, partition, test,
          eval_probe_factory(state),
          [](nn::Module& m) {
            return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
          },
          strategy);
      EXPECT_THROW(runner.run(), Error)
          << "rounds=" << rounds << " workers=" << workers;
    }
  }
}

// Every field of two results, compared bit for bit.
void expect_same_result(const fl::SimulationResult& a,
                        const fl::SimulationResult& b,
                        const std::string& label) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << label;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const fl::RoundRecord& x = a.rounds[r];
    const fl::RoundRecord& y = b.rounds[r];
    EXPECT_TRUE(x.round == y.round && x.test_accuracy == y.test_accuracy &&
                x.train_loss == y.train_loss &&
                x.bytes_per_client == y.bytes_per_client &&
                x.cumulative_bytes_per_client ==
                    y.cumulative_bytes_per_client &&
                x.participants == y.participants &&
                x.bytes_per_participant == y.bytes_per_participant &&
                x.frozen_fraction == y.frozen_fraction &&
                x.round_seconds == y.round_seconds &&
                x.cumulative_seconds == y.cumulative_seconds &&
                x.staleness == y.staleness)
        << label << " round " << r + 1;
    EXPECT_GE(x.test_accuracy, 0.0) << label << " round " << r + 1;
  }
  EXPECT_EQ(a.best_accuracy, b.best_accuracy) << label;
  EXPECT_EQ(a.final_accuracy, b.final_accuracy) << label;
  EXPECT_EQ(a.total_bytes_per_client, b.total_bytes_per_client) << label;
  EXPECT_EQ(a.total_seconds, b.total_seconds) << label;
  EXPECT_EQ(a.mean_frozen_fraction, b.mean_frozen_fraction) << label;
  EXPECT_EQ(a.final_global_params, b.final_global_params) << label;
}

TEST(RunnerEvaluation, EveryRoundSameResultForAnyLaneCountAndTestSize) {
  SyntheticImageDataset train(tiny_spec(), 64, 1);
  // Fewer samples than lanes, and more than 4 x 8 lanes x 32.
  SyntheticImageDataset small_test(tiny_spec(), 3, 2);
  SyntheticImageDataset large_test(tiny_spec(), 1100, 3);
  Rng prng(23);
  const auto partition = data::iid_partition(train.size(), 4, prng);
  for (const fl::AggregationMode mode :
       {fl::AggregationMode::kSynchronous,
        fl::AggregationMode::kAsyncBuffered}) {
    for (const SyntheticImageDataset* test : {&small_test, &large_test}) {
      auto run_at = [&](std::size_t workers) {
        fl::FlConfig config;
        config.num_clients = 4;
        config.rounds = 3;
        config.local_iters = 2;
        config.batch_size = 8;
        config.eval_every = 1;
        config.aggregation_mode = mode;
        config.async_goal_k = 2;
        config.compute_multiplier = {1.0, 2.0, 1.0, 3.0};
        config.worker_threads = workers;
        fl::FullSync strategy;
        fl::FederatedRunner runner(
            config, train, partition, *test, tiny_mlp_factory(64, 4),
            [](nn::Module& m) {
              return std::make_unique<optim::Sgd>(m.parameters(), 0.05);
            },
            strategy);
        return runner.run();
      };
      const fl::SimulationResult one = run_at(1);
      for (const std::size_t workers : {2u, 4u, 8u}) {
        expect_same_result(
            one, run_at(workers),
            std::string(mode == fl::AggregationMode::kSynchronous ? "sync"
                                                                  : "async") +
                " test=" + std::to_string(test->size()) +
                " workers=" + std::to_string(workers));
      }
    }
  }
}

TEST(FullSyncStream, ApplyPullRejectsWrongDimAtomically) {
  fl::FullSync sync;
  sync.init(std::vector<float>{1.f, 2.f, 3.f, 4.f}, 1);
  fl::StreamSync* stream = sync.stream_sync();
  ASSERT_NE(stream, nullptr);

  // A well-formed dense frame of the wrong dimension (encoded by a dim-2
  // sibling) must be rejected without clobbering the caller's buffer.
  fl::FullSync small;
  small.init(std::vector<float>{0.f, 0.f}, 1);
  const std::vector<float> small_params{5.f, 6.f};
  const auto bad_frame =
      small.stream_sync()->encode_push(fl::ClientId(0), small_params);

  std::vector<float> params{7.f, 8.f};
  EXPECT_THROW(stream->apply_pull(bad_frame, params), Error);
  EXPECT_EQ(params, (std::vector<float>{7.f, 8.f}));
}

}  // namespace
}  // namespace apf
