// Tests for the extension surface: Dropout, VGG-11, checkpointing, the
// QSGD/TernGrad codecs, the update-quantization and DP wrappers, tensor
// granularity and server-side-mask accounting in the APF manager.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "compress/codecs.h"
#include "compress/wrappers.h"
#include "core/apf_manager.h"
#include "grad_check.h"
#include "nn/dropout.h"
#include "nn/models.h"
#include "nn/param_vector.h"
#include "nn/serialize.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace apf {
namespace {

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

TEST(Dropout, EvalModeIsIdentity) {
  nn::Dropout dropout(0.5);
  dropout.set_training(false);
  Rng rng(1);
  Tensor x = Tensor::uniform({4, 8}, rng);
  Tensor y = dropout.forward(x);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
  Tensor g = dropout.backward(Tensor(x.shape(), 1.f));
  for (std::size_t i = 0; i < g.numel(); ++i) EXPECT_EQ(g[i], 1.f);
}

TEST(Dropout, TrainModeDropsExpectedFraction) {
  nn::Dropout dropout(0.3, 99);
  dropout.set_training(true);
  Tensor x({10000}, 1.f);
  Tensor y = dropout.forward(x);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y[i], 1.f / 0.7f, 1e-5f);  // inverted scaling
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.02);
}

TEST(Dropout, TrainModeIsUnbiased) {
  nn::Dropout dropout(0.5, 7);
  dropout.set_training(true);
  Tensor x({2000}, 2.f);
  RunningStat stat;
  for (int rep = 0; rep < 20; ++rep) {
    Tensor y = dropout.forward(x);
    stat.add(y.mean());
  }
  EXPECT_NEAR(stat.mean(), 2.0, 0.1);
}

TEST(Dropout, BackwardRoutesThroughMask) {
  nn::Dropout dropout(0.5, 3);
  dropout.set_training(true);
  Tensor x({64}, 1.f);
  Tensor y = dropout.forward(x);
  Tensor g = dropout.backward(Tensor({64}, 1.f));
  for (std::size_t i = 0; i < 64; ++i) {
    if (y[i] == 0.f) {
      EXPECT_EQ(g[i], 0.f);
    } else {
      EXPECT_NEAR(g[i], 2.f, 1e-5f);
    }
  }
}

TEST(Dropout, ZeroProbabilityIsIdentityInTraining) {
  nn::Dropout dropout(0.0);
  dropout.set_training(true);
  Rng rng(2);
  Tensor x = Tensor::uniform({16}, rng);
  Tensor y = dropout.forward(x);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, RejectsInvalidProbability) {
  EXPECT_THROW(nn::Dropout(1.0), Error);
  EXPECT_THROW(nn::Dropout(-0.1), Error);
}

// ---------------------------------------------------------------------------
// VGG-11
// ---------------------------------------------------------------------------

TEST(Vgg11, OutputShape) {
  Rng rng(3);
  auto net = nn::make_vgg11(rng, 3, 16, 10, /*base_width=*/4);
  net->set_training(true);
  Tensor y = net->forward(Tensor::uniform({2, 3, 16, 16}, rng));
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
}

TEST(Vgg11, HasEightConvLayers) {
  Rng rng(4);
  auto net = nn::make_vgg11(rng, 3, 16, 10, 4);
  std::size_t convs = 0;
  for (const auto& p : net->parameters()) {
    if (p.name.find("conv") != std::string::npos &&
        p.name.find("weight") != std::string::npos) {
      ++convs;
    }
  }
  EXPECT_EQ(convs, 8u);  // VGG-11 = 8 conv + 3 fc; our CIFAR head has 1 fc
}

TEST(Vgg11, EvalForwardDeterministic) {
  Rng rng(5);
  auto net = nn::make_vgg11(rng, 3, 16, 10, 4);
  net->set_training(false);
  Rng xr(6);
  Tensor x = Tensor::uniform({1, 3, 16, 16}, xr);
  Tensor y1 = net->forward(x);
  Tensor y2 = net->forward(x);
  for (std::size_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(Vgg11, TrainsOnTinyBatch) {
  Rng rng(7);
  auto net = nn::make_vgg11(rng, 1, 8, 4, 2);
  net->set_training(true);
  Tensor x = Tensor::uniform({4, 1, 8, 8}, rng);
  Tensor y = net->forward(x);
  Tensor g(y.shape(), 0.1f);
  net->backward(g);
  bool any_grad = false;
  for (auto& p : net->parameters()) {
    for (std::size_t i = 0; i < p.param->numel(); ++i) {
      any_grad |= p.param->grad[i] != 0.f;
    }
  }
  EXPECT_TRUE(any_grad);
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

TEST(Checkpoint, RoundTripRestoresParamsAndBuffers) {
  Rng rng(8);
  auto net = nn::make_resnet18(rng, 3, 10, 4);
  std::stringstream ss;
  nn::save_checkpoint(*net, ss);
  const auto params_before = nn::flatten_params(*net);
  const auto buffers_before = nn::flatten_buffers(*net);
  // Clobber and restore.
  for (auto& p : net->parameters()) p.param->value.fill(0.f);
  for (auto& b : net->buffers()) b.buffer->fill(9.f);
  nn::load_checkpoint(*net, ss);
  EXPECT_EQ(nn::flatten_params(*net), params_before);
  EXPECT_EQ(nn::flatten_buffers(*net), buffers_before);
}

TEST(Checkpoint, RejectsWrongArchitecture) {
  Rng rng(9);
  auto a = nn::make_mlp(rng, 4, 8, 1, 3);
  auto b = nn::make_mlp(rng, 4, 16, 1, 3);  // different width
  std::stringstream ss;
  nn::save_checkpoint(*a, ss);
  EXPECT_THROW(nn::load_checkpoint(*b, ss), Error);
}

TEST(Checkpoint, RejectsGarbage) {
  Rng rng(10);
  auto net = nn::make_mlp(rng, 4, 8, 1, 3);
  std::stringstream ss("this is not a checkpoint, definitely");
  EXPECT_THROW(nn::load_checkpoint(*net, ss), Error);
}

TEST(Checkpoint, RejectsTruncatedStream) {
  Rng rng(11);
  auto net = nn::make_mlp(rng, 4, 8, 1, 3);
  std::stringstream ss;
  nn::save_checkpoint(*net, ss);
  std::string blob = ss.str();
  blob.resize(blob.size() / 2);
  std::stringstream truncated(blob);
  EXPECT_THROW(nn::load_checkpoint(*net, truncated), Error);
}

TEST(Checkpoint, FileRoundTrip) {
  Rng rng(12);
  auto net = nn::make_mlp(rng, 4, 8, 1, 3);
  const std::string path = "/tmp/apf_checkpoint_test.bin";
  nn::save_checkpoint_file(*net, path);
  const auto before = nn::flatten_params(*net);
  for (auto& p : net->parameters()) p.param->value.fill(0.f);
  nn::load_checkpoint_file(*net, path);
  EXPECT_EQ(nn::flatten_params(*net), before);
}

// ---------------------------------------------------------------------------
// QSGD / TernGrad codecs
// ---------------------------------------------------------------------------

TEST(QsgdCodec, IsUnbiased) {
  compress::QsgdCodec codec(2);  // 3 levels: coarse, good stochasticity
  Rng rng(13);
  std::vector<float> original = {0.3f, -0.7f, 0.05f, 1.1f};
  std::vector<double> mean(original.size(), 0.0);
  const int reps = 20000;
  for (int r = 0; r < reps; ++r) {
    std::vector<float> u = original;
    u = codec.decode(codec.encode(u, rng));
    for (std::size_t i = 0; i < u.size(); ++i) mean[i] += u[i];
  }
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(mean[i] / reps, original[i], 0.02) << i;
  }
}

TEST(QsgdCodec, OutputsOnQuantizationGrid) {
  compress::QsgdCodec codec(3);  // s = 7 levels
  Rng rng(14);
  std::vector<float> u = {0.2f, -0.9f, 0.4f, 0.01f};
  double norm = 0;
  for (float v : u) norm += static_cast<double>(v) * v;
  norm = std::sqrt(norm);
  u = codec.decode(codec.encode(u, rng));
  for (float v : u) {
    const double level = std::fabs(v) / norm * 7.0;
    EXPECT_NEAR(level, std::round(level), 1e-4);
  }
}

TEST(QsgdCodec, WireBytesFormula) {
  compress::QsgdCodec codec(4);
  Rng rng(18);
  // Measured APQ1 frame: 13-byte header + 8 elements at (4+1) bits packed.
  EXPECT_EQ(codec.encode(std::vector<float>(8, 0.5f), rng).size(), 13u + 5u);
  EXPECT_EQ(codec.name(), "QSGD4b");
}

TEST(QsgdCodec, ZeroVectorUnchanged) {
  compress::QsgdCodec codec(4);
  Rng rng(15);
  std::vector<float> u(5, 0.f);
  u = codec.decode(codec.encode(u, rng));
  for (float v : u) EXPECT_EQ(v, 0.f);
}

TEST(TernGradCodec, OutputsTernaryTimesScale) {
  compress::TernGradCodec codec;
  Rng rng(16);
  std::vector<float> u = {0.5f, -0.2f, 0.9f, 0.f};
  const float scale = 0.9f;
  u = codec.decode(codec.encode(u, rng));
  for (float v : u) {
    EXPECT_TRUE(v == 0.f || std::fabs(std::fabs(v) - scale) < 1e-6f) << v;
  }
}

TEST(TernGradCodec, IsUnbiased) {
  compress::TernGradCodec codec;
  Rng rng(17);
  std::vector<float> original = {0.5f, -0.2f, 0.9f};
  std::vector<double> mean(original.size(), 0.0);
  const int reps = 20000;
  for (int r = 0; r < reps; ++r) {
    std::vector<float> u = original;
    u = codec.decode(codec.encode(u, rng));
    for (std::size_t i = 0; i < u.size(); ++i) mean[i] += u[i];
  }
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(mean[i] / reps, original[i], 0.02) << i;
  }
}

TEST(TernGradCodec, WireBytes) {
  compress::TernGradCodec codec;
  Rng rng(19);
  // Measured APT1 frame: 12-byte header + 16 elements at 2 bits packed.
  EXPECT_EQ(codec.encode(std::vector<float>(16, 0.5f), rng).size(), 12u + 4u);
}

// ---------------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------------

TEST(UpdateQuantizedSync, ChargesCodecBytes) {
  auto strategy = compress::UpdateQuantizedSync(
      std::make_unique<fl::FullSync>(),
      std::make_unique<compress::QsgdCodec>(3));
  strategy.init(std::vector<float>(16, 0.f), 1);
  auto params = std::vector<std::vector<float>>{std::vector<float>(16, 1.f)};
  const auto result = strategy.synchronize(fl::RoundId(1), params, {1.0});
  // Measured APQ1 frame: 13-byte header + 16 elements at (3+1) bits packed.
  EXPECT_EQ(result.bytes_up[0], fl::ByteCount(13 + 8));
  // Pull unchanged (full-precision APD1 frame from the inner FullSync).
  EXPECT_EQ(result.bytes_down[0], fl::ByteCount(72));
}

TEST(UpdateQuantizedSync, PreservesUniformUpdateExactly) {
  // A uniform update vector quantizes exactly at any level count.
  auto strategy = compress::UpdateQuantizedSync(
      std::make_unique<fl::FullSync>(),
      std::make_unique<compress::TernGradCodec>());
  strategy.init(std::vector<float>(4, 0.f), 1);
  auto params = std::vector<std::vector<float>>{std::vector<float>(4, 0.5f)};
  strategy.synchronize(fl::RoundId(1), params, {1.0});
  for (float v : params[0]) EXPECT_FLOAT_EQ(v, 0.5f);
}

TEST(UpdateQuantizedSync, NameComposes) {
  auto strategy = compress::UpdateQuantizedSync(
      std::make_unique<fl::FullSync>(),
      std::make_unique<compress::QsgdCodec>(8));
  EXPECT_EQ(strategy.name(), "FedAvg+QSGD8b");
}

TEST(DpNoiseSync, AddsNoiseToUpdates) {
  auto strategy = compress::DpNoiseSync(std::make_unique<fl::FullSync>(),
                                        /*noise_stddev=*/0.1, 42);
  strategy.init(std::vector<float>(1000, 0.f), 1);
  auto params =
      std::vector<std::vector<float>>{std::vector<float>(1000, 0.f)};
  strategy.synchronize(fl::RoundId(1), params, {1.0});
  // The aggregated global should now be noise with stddev ~0.1.
  RunningStat stat;
  for (float v : strategy.global_params()) stat.add(v);
  EXPECT_NEAR(stat.stddev(), 0.1, 0.02);
  EXPECT_NEAR(stat.mean(), 0.0, 0.02);
}

TEST(DpNoiseSync, ZeroSigmaIsTransparent) {
  auto strategy = compress::DpNoiseSync(std::make_unique<fl::FullSync>(),
                                        0.0, 42);
  strategy.init(std::vector<float>{1.f, 2.f}, 1);
  auto params = std::vector<std::vector<float>>{{3.f, 4.f}};
  strategy.synchronize(fl::RoundId(1), params, {1.0});
  EXPECT_FLOAT_EQ(strategy.global_params()[0], 3.f);
  EXPECT_FLOAT_EQ(strategy.global_params()[1], 4.f);
}

TEST(DpNoiseSync, FrozenScalarsCarryNoNoise) {
  // Wrap an APF manager, freeze by hand-driving oscillations, then verify
  // frozen coordinates stay bit-exact despite the noise.
  core::ApfOptions opt;
  opt.check_every_rounds = 2;
  opt.ema_alpha = 0.5;
  opt.stability_threshold = 0.3;
  opt.threshold_decay = false;
  auto strategy = compress::DpNoiseSync(
      std::make_unique<core::ApfManager>(opt), 0.05, 7);
  const std::size_t dim = 8;
  std::vector<float> init(dim, 0.f);
  strategy.init(init, 1);
  std::vector<std::vector<float>> params(1, init);
  for (std::size_t k = 1; k <= 30; ++k) {
    const auto global = strategy.global_params();
    const Bitmap* mask = strategy.frozen_mask();
    for (std::size_t j = 0; j < dim; ++j) {
      params[0][j] = global[j] + (k % 2 == 0 ? 0.05f : -0.05f);
      if (mask->get(j)) params[0][j] = strategy.frozen_anchor()[j];
    }
    strategy.synchronize(fl::RoundId(k), params, {1.0});
  }
  const Bitmap* mask = strategy.frozen_mask();
  ASSERT_GT(mask->count(), 0u);
  const std::vector<float> before(strategy.global_params().begin(),
                                  strategy.global_params().end());
  // One more frozen round: frozen coords must not move at all.
  const auto global = strategy.global_params();
  for (std::size_t j = 0; j < dim; ++j) {
    params[0][j] =
        mask->get(j) ? strategy.frozen_anchor()[j] : global[j] + 0.05f;
  }
  const Bitmap mask_copy = *mask;
  strategy.synchronize(fl::RoundId(31), params, {1.0});
  for (std::size_t j = 0; j < dim; ++j) {
    if (mask_copy.get(j) && strategy.frozen_mask()->get(j)) {
      EXPECT_EQ(strategy.global_params()[j], before[j]);
    }
  }
}

// ---------------------------------------------------------------------------
// APF manager extensions
// ---------------------------------------------------------------------------

TEST(ApfTensorGranularity, RequiresSegments) {
  core::ApfOptions opt;
  opt.granularity = core::FreezeGranularity::kTensor;
  core::ApfManager manager(opt);
  std::vector<float> init(8, 0.f);
  EXPECT_THROW(manager.init(init, 1), Error);
}

TEST(ApfTensorGranularity, SegmentsMustTile) {
  core::ApfOptions opt;
  opt.granularity = core::FreezeGranularity::kTensor;
  core::ApfManager manager(opt);
  manager.set_segments({{0, 4}, {4, 2}});  // covers only 6 of 8
  std::vector<float> init(8, 0.f);
  EXPECT_THROW(manager.init(init, 1), Error);
}

TEST(ApfTensorGranularity, FreezesWholeTensorsOnly) {
  core::ApfOptions opt;
  opt.granularity = core::FreezeGranularity::kTensor;
  opt.check_every_rounds = 2;
  opt.ema_alpha = 0.5;
  opt.stability_threshold = 0.3;
  opt.threshold_decay = false;
  core::ApfManager manager(opt);
  // Segment 0: scalars 0-3 oscillate (stable); segment 1: 4-7 drift.
  manager.set_segments({{0, 4}, {4, 4}});
  std::vector<float> init(8, 0.f);
  manager.init(init, 1);
  std::vector<std::vector<float>> params(1, init);
  std::size_t frozen_rounds_seg0 = 0, frozen_rounds_seg1 = 0;
  for (std::size_t k = 1; k <= 40; ++k) {
    const auto global = manager.global_params();
    const Bitmap* mask = manager.frozen_mask();
    for (std::size_t j = 0; j < 8; ++j) {
      const float step = j < 4 ? (k % 2 == 0 ? 0.05f : -0.05f) : 0.02f;
      params[0][j] = global[j] + step;
      if (mask->get(j)) params[0][j] = manager.frozen_anchor()[j];
    }
    manager.synchronize(fl::RoundId(k), params, {1.0});
    // The mask must be uniform within each segment.
    for (std::size_t j = 1; j < 4; ++j) {
      EXPECT_EQ(manager.frozen_mask()->get(j), manager.frozen_mask()->get(0));
    }
    for (std::size_t j = 5; j < 8; ++j) {
      EXPECT_EQ(manager.frozen_mask()->get(j), manager.frozen_mask()->get(4));
    }
    frozen_rounds_seg0 += manager.frozen_mask()->get(0);
    frozen_rounds_seg1 += manager.frozen_mask()->get(4);
  }
  EXPECT_GT(frozen_rounds_seg0, 10u);
  EXPECT_EQ(frozen_rounds_seg1, 0u);
}

TEST(ApfServerSideMask, ChargesBitmapOnDownlink) {
  core::ApfOptions opt;
  opt.server_side_mask = true;
  core::ApfManager manager(opt);
  const std::size_t dim = 100;
  std::vector<float> init(dim, 0.f);
  manager.init(init, 2);
  std::vector<std::vector<float>> params(2, init);
  const auto result = manager.synchronize(fl::RoundId(1), params, {1.0, 1.0});
  // Up: measured APD1 frame (8-byte header + dim values). Down: measured
  // APM1 frame (8-byte header + ceil(100/8) mask bytes + dim values).
  EXPECT_EQ(result.bytes_up[0], fl::ByteCount(8 + 4 * dim));
  EXPECT_EQ(result.bytes_down[0], fl::ByteCount(8 + 13 + 4 * dim));
}

TEST(DpNoiseSync, RejectionIsAtomic) {
  // A round the inner strategy rejects (zero weight total) must leave the
  // caller's proposals untouched AND must not consume the noise stream:
  // a strategy that saw a rejected round and one that never did produce
  // bit-identical globals on the next valid round.
  auto run = [](bool inject_rejected_round) {
    compress::DpNoiseSync strategy(std::make_unique<fl::FullSync>(),
                                   /*noise_stddev=*/0.1, 42);
    strategy.init(std::vector<float>(16, 0.f), 1);
    if (inject_rejected_round) {
      auto params = std::vector<std::vector<float>>{
          std::vector<float>(16, 1.f)};
      const auto before = params;
      EXPECT_THROW(strategy.synchronize(fl::RoundId(1), params, {0.0}),
                   Error);
      EXPECT_EQ(params, before);  // proposals untouched
    }
    auto params = std::vector<std::vector<float>>{
        std::vector<float>(16, 2.f)};
    strategy.synchronize(fl::RoundId(1), params, {1.0});
    return std::vector<float>(strategy.global_params().begin(),
                              strategy.global_params().end());
  };
  EXPECT_EQ(run(false), run(true));  // rng stream not consumed
}

}  // namespace
}  // namespace apf
