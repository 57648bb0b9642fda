// Tests for the shared deterministic thread-pool runtime: ThreadPool
// primitives, bit-exactness of the parallel tensor kernels and evaluation,
// logger thread-safety, and the FederatedRunner determinism contract
// ("results are bit-identical for any worker count"). This file and fl_test
// also run under the tsan preset in CI so pool/runner races fail the build.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/apf.h"
#include "fl/evaluate.h"
#include "nn/conv_layers.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "tensor/ops.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace apf {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool primitives
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.lanes(), 4u);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  util::ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, OrderedReduceBitIdenticalForAnyLaneCount) {
  // Summation order must be a function of n alone, so pools of any size
  // produce the identical double, bit for bit.
  constexpr std::size_t kN = 4097;
  auto produce = [](std::size_t i) {
    // Values with wildly different magnitudes so FP addition order matters.
    return (i % 7 == 0 ? 1e12 : 1e-3) / static_cast<double>(i + 1);
  };
  auto combine = [](double acc, double v) { return acc + v; };
  double serial = 0.0;
  for (std::size_t i = 0; i < kN; ++i) serial = combine(serial, produce(i));
  for (std::size_t lanes : {1u, 2u, 8u}) {
    util::ThreadPool pool(lanes);
    const double parallel =
        pool.ordered_reduce(kN, 0.0, produce, combine);
    EXPECT_EQ(serial, parallel) << "lanes=" << lanes;
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  util::ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  std::atomic<bool> saw_worker_flag{false};
  pool.parallel_for(8, [&](std::size_t) {
    if (util::ThreadPool::in_worker()) saw_worker_flag = true;
    // Must not deadlock: nested regions execute inline on this lane.
    pool.parallel_for(16, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_TRUE(saw_worker_flag.load());
  EXPECT_EQ(inner_total.load(), 8 * 16);
  EXPECT_FALSE(util::ThreadPool::in_worker());
}

TEST(ThreadPool, ExceptionPropagatesAfterAllIndicesFinish) {
  util::ThreadPool pool(4);
  std::atomic<int> done{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 13) throw std::runtime_error("boom");
                          done.fetch_add(1, std::memory_order_relaxed);
                        }),
      std::runtime_error);
  // A throw abandons only the rest of the failing chunk; every other chunk
  // still runs to completion (chunk = 64 / (4 lanes * 4) = 4 here).
  EXPECT_GE(done.load(), 60);
  EXPECT_LT(done.load(), 64);
  // The pool is reusable after a failed region.
  std::atomic<int> second{0};
  pool.parallel_for(32, [&](std::size_t) {
    second.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(second.load(), 32);
}

TEST(ThreadPool, SingleLanePoolSpawnsNoThreadsAndRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.lanes(), 1u);
  std::size_t sum = 0;  // no atomics needed: everything runs on this thread
  pool.parallel_for(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

// ---------------------------------------------------------------------------
// Logger thread-safety (races here fail the tsan CI job)
// ---------------------------------------------------------------------------

TEST(Logging, ConcurrentEmitKeepsLinesIntact) {
  std::ostringstream captured;
  std::streambuf* old_buf = std::cerr.rdbuf(captured.rdbuf());
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kWarn);
  constexpr std::size_t kMessages = 256;
  {
    util::ThreadPool pool(8);
    pool.parallel_for(kMessages, [&](std::size_t i) {
      APF_WARN("worker message " << i << " with some padding text");
    });
  }
  std::cerr.rdbuf(old_buf);
  set_log_level(old_level);
  // The mutex serializes whole lines: every line parses as one message.
  std::istringstream in(captured.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_TRUE(line.rfind("[WARN] worker message ", 0) == 0) << line;
    ++lines;
  }
  EXPECT_EQ(lines, kMessages);
}

// ---------------------------------------------------------------------------
// Parallel tensor kernels are bit-identical to the serial kernels
// ---------------------------------------------------------------------------

class ComputePoolOverride {
 public:
  explicit ComputePoolOverride(std::size_t lanes)
      : pool_(lanes), scope_(pool_) {}

 private:
  util::ThreadPool pool_;
  util::ScopedComputePool scope_;
};

TEST(ParallelKernels, MatmulFamilyMatchesSerialBitwise) {
  Rng rng(42);
  // Big enough to cross the parallel threshold; uneven dims catch indexing
  // bugs; injected zeros exercise the zero-skip path both ways.
  Tensor a = Tensor::uniform({96, 80}, rng);
  Tensor b = Tensor::uniform({80, 112}, rng);
  Tensor bt = Tensor::uniform({112, 80}, rng);
  // 113 rows end matmul_nt's packed B in a partial 8-row panel.
  Tensor bt_ragged = Tensor::uniform({113, 80}, rng);
  Tensor tall = Tensor::uniform({96, 112}, rng);
  for (std::size_t i = 0; i < a.numel(); i += 17) a[i] = 0.f;

  Tensor serial_mm, serial_tn, serial_nt, serial_nt_ragged;
  {
    ComputePoolOverride one(1);
    serial_mm = matmul(a, b);
    serial_tn = matmul_tn(a, tall);
    serial_nt = matmul_nt(a, bt);
    serial_nt_ragged = matmul_nt(a, bt_ragged);
  }
  for (std::size_t lanes : {2u, 8u}) {
    ComputePoolOverride many(lanes);
    const Tensor par_mm = matmul(a, b);
    const Tensor par_tn = matmul_tn(a, tall);
    const Tensor par_nt = matmul_nt(a, bt);
    const Tensor par_nt_ragged = matmul_nt(a, bt_ragged);
    ASSERT_TRUE(std::equal(serial_mm.raw(), serial_mm.raw() + serial_mm.numel(),
                           par_mm.raw()))
        << "matmul lanes=" << lanes;
    ASSERT_TRUE(std::equal(serial_tn.raw(), serial_tn.raw() + serial_tn.numel(),
                           par_tn.raw()))
        << "matmul_tn lanes=" << lanes;
    ASSERT_TRUE(std::equal(serial_nt.raw(), serial_nt.raw() + serial_nt.numel(),
                           par_nt.raw()))
        << "matmul_nt lanes=" << lanes;
    ASSERT_TRUE(std::equal(serial_nt_ragged.raw(),
                           serial_nt_ragged.raw() + serial_nt_ragged.numel(),
                           par_nt_ragged.raw()))
        << "matmul_nt 113 rows lanes=" << lanes;
  }
}

// Forward, input gradient and parameter gradients of one conv pass (plus an
// eval-mode forward) on a pool with `lanes` lanes.
std::vector<std::vector<float>> conv_pass(std::size_t lanes, std::size_t in_c,
                                          std::size_t out_c,
                                          std::size_t stride,
                                          const Shape& input_shape) {
  ComputePoolOverride pool(lanes);
  Rng rng(7);
  nn::Conv2d conv(in_c, out_c, 3, rng, stride, 1);
  Rng data_rng(8);
  Tensor x = Tensor::uniform(input_shape, data_rng);
  Tensor y = conv.forward(x);
  Tensor g = Tensor::uniform(y.shape(), data_rng, -0.1f, 0.1f);
  Tensor gx = conv.backward(g);
  conv.set_training(false);
  Tensor y_eval = conv.forward(x);
  std::vector<std::vector<float>> out;
  out.emplace_back(y.raw(), y.raw() + y.numel());
  out.emplace_back(gx.raw(), gx.raw() + gx.numel());
  out.emplace_back(y_eval.raw(), y_eval.raw() + y_eval.numel());
  for (const auto& p : conv.parameters()) {
    out.emplace_back(p.param->grad.raw(),
                     p.param->grad.raw() + p.param->grad.numel());
  }
  return out;
}

TEST(ParallelKernels, Conv2dForwardBackwardMatchesSerialBitwise) {
  const auto serial = conv_pass(1, 3, 16, 1, {8, 3, 32, 32});
  for (std::size_t lanes : {2u, 8u}) {
    const auto parallel = conv_pass(lanes, 3, 16, 1, {8, 3, 32, 32});
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i], parallel[i]) << "tensor " << i << " lanes=" << lanes;
    }
  }
}

// Six output channels give the forward GEMM one full and one ragged row
// tile, so pool runs must split columns to fill the lanes; stride 2 adds
// the downsampling geometry of a ResNet stage.
TEST(ParallelKernels, Conv2dSixChannelsMatchesSerialBitwise) {
  for (const std::size_t stride : {1u, 2u}) {
    const auto serial = conv_pass(1, 6, 6, stride, {16, 6, 16, 16});
    for (std::size_t lanes : {2u, 8u}) {
      const auto parallel = conv_pass(lanes, 6, 6, stride, {16, 6, 16, 16});
      ASSERT_EQ(serial.size(), parallel.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i], parallel[i])
            << "tensor " << i << " stride=" << stride << " lanes=" << lanes;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Strategy-side codec work on the compute pool is lane-count independent
// ---------------------------------------------------------------------------

// APF under fp16 (the paper's §7.7 stack) with a loose threshold and a check
// every round, so the freezing mask fills within a few rounds and the masked
// push/pull paths run on a non-empty mask.
std::unique_ptr<fl::SyncStrategy> make_quantized_apf() {
  core::ApfOptions options;
  options.stability_threshold = 0.5;
  options.ema_alpha = 0.5;
  options.check_every_rounds = 1;
  return std::make_unique<compress::QuantizedSync>(
      std::make_unique<core::ApfManager>(options));
}

constexpr std::size_t kSyncDim = 300;  // four full words and a partial one
constexpr std::size_t kSyncClients = 4;

/// Client i's round-`round` proposal: the global model plus noise drawn from
/// a seed fixed by (round, i), so every lane count sees the same inputs.
std::vector<std::vector<float>> sync_proposals(const fl::SyncStrategy& s,
                                               std::size_t round) {
  std::vector<std::vector<float>> params(kSyncClients);
  for (std::size_t i = 0; i < kSyncClients; ++i) {
    Rng rng(1000 * round + i);
    params[i].assign(s.global_params().begin(), s.global_params().end());
    for (auto& v : params[i]) v += rng.uniform_float(-0.1f, 0.1f);
  }
  return params;
}

struct SyncTrace {
  std::vector<std::uint8_t> bytes;  // every Result field and post-sync vector
  double max_frozen_fraction = 0.0;
};

SyncTrace run_quantized_apf_rounds() {
  auto strategy = make_quantized_apf();
  std::vector<float> init(kSyncDim);
  Rng init_rng(5);
  for (auto& v : init) v = init_rng.uniform_float(-1.f, 1.f);
  strategy->init(init, kSyncClients);
  // Client 2 sits out: it gets no frames and keeps its proposal.
  const std::vector<double> weights = {1.0, 2.0, 0.0, 1.0};
  SyncTrace trace;
  const auto append = [&](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    trace.bytes.insert(trace.bytes.end(), bytes, bytes + size);
  };
  for (std::size_t round = 1; round <= 12; ++round) {
    auto params = sync_proposals(*strategy, round);
    const auto result =
        strategy->synchronize(fl::RoundId(round), params, weights);
    trace.max_frozen_fraction =
        std::max(trace.max_frozen_fraction, result.frozen_fraction);
    for (std::size_t i = 0; i < kSyncClients; ++i) {
      const std::uint64_t counts[] = {result.bytes_up[i].value(),
                                      result.bytes_down[i].value(),
                                      result.frames_up[i].size(),
                                      result.frames_down[i].size()};
      append(counts, sizeof(counts));
      append(result.frames_up[i].data(), result.frames_up[i].size());
      append(result.frames_down[i].data(), result.frames_down[i].size());
      append(params[i].data(), params[i].size() * sizeof(float));
    }
    append(&result.frozen_fraction, sizeof(result.frozen_fraction));
  }
  return trace;
}

TEST(ParallelStrategies, QuantizedApfBitIdenticalAcrossLaneCounts) {
  SyncTrace serial;
  {
    ComputePoolOverride one(1);
    serial = run_quantized_apf_rounds();
  }
  // The mask must have filled, or the masked paths were never exercised.
  EXPECT_GT(serial.max_frozen_fraction, 0.0);
  for (std::size_t lanes : {2u, 8u}) {
    ComputePoolOverride many(lanes);
    const SyncTrace parallel = run_quantized_apf_rounds();
    ASSERT_TRUE(parallel.bytes == serial.bytes) << "lanes=" << lanes;
  }
}

TEST(ParallelStrategies, QuantizedApfRejectionLeavesProposalsUntouched) {
  ComputePoolOverride four(4);
  auto strategy = make_quantized_apf();
  strategy->init(std::vector<float>(kSyncDim, 0.5f), kSyncClients);
  for (std::size_t round = 1; round <= 3; ++round) {
    auto params = sync_proposals(*strategy, round);
    strategy->synchronize(fl::RoundId(round), params,
                          std::vector<double>(kSyncClients, 1.0));
  }
  const std::vector<float> global_before(strategy->global_params().begin(),
                                         strategy->global_params().end());
  auto params = sync_proposals(*strategy, 4);
  const auto proposals = params;
  const std::vector<double> weights = {
      1.0, std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0};
  EXPECT_THROW(strategy->synchronize(fl::RoundId(4), params, weights), Error);
  for (std::size_t i = 0; i < kSyncClients; ++i) {
    ASSERT_EQ(std::memcmp(params[i].data(), proposals[i].data(),
                          kSyncDim * sizeof(float)),
              0)
        << "client " << i;
  }
  ASSERT_EQ(std::memcmp(strategy->global_params().data(),
                        global_before.data(), kSyncDim * sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// Evaluation: exact integer counting + deterministic parallel sums
// ---------------------------------------------------------------------------

struct EvalFixture {
  data::SyntheticImageDataset dataset;
  std::unique_ptr<nn::Module> model;

  EvalFixture(std::size_t samples, std::uint64_t seed)
      : dataset(make_spec(), samples, seed), model(make_model()) {}

  static data::SyntheticImageSpec make_spec() {
    data::SyntheticImageSpec spec;
    spec.num_classes = 4;
    spec.channels = 1;
    spec.image_size = 8;
    spec.noise_stddev = 0.8;  // noisy: accuracy lands strictly inside (0, 1)
    return spec;
  }

  static std::unique_ptr<nn::Module> make_model() {
    Rng rng(123);
    auto net = std::make_unique<nn::Sequential>();
    net->add(std::make_unique<nn::Flatten>(), "flatten");
    net->add(nn::make_mlp(rng, 64, 16, 1, 4), "mlp");
    return net;
  }
};

TEST(Evaluate, AccuracyIsExactIntegerCountOverDataset) {
  // 50 samples with batch size 7 leaves a ragged final batch of size 1; the
  // old accuracy * batch.size() + 0.5 float round-trip is gone — the count
  // must match per-batch integer counting exactly, and accuracy must be the
  // exact rational correct / size for every batch size.
  EvalFixture fx(50, 11);
  const std::size_t correct = fl::count_correct(*fx.model, fx.dataset, 7);
  EXPECT_LE(correct, fx.dataset.size());
  const double acc7 = fl::evaluate_accuracy(*fx.model, fx.dataset, 7);
  EXPECT_DOUBLE_EQ(acc7, static_cast<double>(correct) / 50.0);
  // Per-row forward results do not depend on batch splitting for this model,
  // so every batch size yields the identical exact count.
  for (std::size_t batch_size : {1u, 3u, 49u, 128u}) {
    EXPECT_EQ(fl::count_correct(*fx.model, fx.dataset, batch_size), correct)
        << "batch_size=" << batch_size;
    EXPECT_DOUBLE_EQ(fl::evaluate_accuracy(*fx.model, fx.dataset, batch_size),
                     acc7)
        << "batch_size=" << batch_size;
  }
}

fl::EvalSums sums_with_replicas(const data::Dataset& dataset,
                                std::size_t replica_count) {
  std::vector<std::unique_ptr<nn::Module>> replicas;
  std::vector<nn::Module*> ptrs;
  for (std::size_t r = 0; r < replica_count; ++r) {
    replicas.push_back(EvalFixture::make_model());
    ptrs.push_back(replicas.back().get());
  }
  util::ThreadPool pool(replica_count);
  return fl::evaluate_sums_parallel(ptrs, dataset, 16, pool);
}

TEST(Evaluate, ParallelSumsBitIdenticalForAnyReplicaCount) {
  EvalFixture fx(97, 13);  // prime sample count: ragged shares and batches
  const std::size_t serial = fl::count_correct(*fx.model, fx.dataset, 16);
  for (std::size_t replica_count = 1; replica_count <= 5; ++replica_count) {
    const fl::EvalSums sums = sums_with_replicas(fx.dataset, replica_count);
    EXPECT_EQ(sums.total, fx.dataset.size()) << "replicas=" << replica_count;
    EXPECT_EQ(sums.correct, serial) << "replicas=" << replica_count;
  }
}

TEST(Evaluate, ParallelSumsWithMoreReplicasThanSamples) {
  EvalFixture fx(3, 13);
  const std::size_t serial = fl::count_correct(*fx.model, fx.dataset, 16);
  const fl::EvalSums sums = sums_with_replicas(fx.dataset, 5);
  EXPECT_EQ(sums.total, 3u);
  EXPECT_EQ(sums.correct, serial);
}

// Rows [begin, end) of a batch, as a batch of their own.
Tensor batch_rows(const Tensor& t, std::size_t begin, std::size_t end) {
  Shape shape = t.shape();
  const std::size_t row = t.numel() / shape[0];
  shape[0] = end - begin;
  Tensor out(shape);
  std::memcpy(out.raw(), t.raw() + begin * row, (end - begin) * row *
                                                    sizeof(float));
  return out;
}

// evaluate_sums_parallel splits the test set by replica count, so a sample
// runs in a different batch for different worker counts. That keeps the
// accuracy bit-identical only because a sample's logits do not depend on
// its batch: 13 rows as one batch, as 5 + 8 and one at a time give the
// same bits on every model family the runner evaluates.
TEST(Evaluate, PerSampleLogitsIndependentOfBatch) {
  Rng rng(5);
  struct Case {
    const char* name;
    std::unique_ptr<nn::Module> model;
    Shape sample;
  };
  Case cases[] = {
      {"lenet", nn::make_lenet5(rng, 1, 16, 10, 0.5), {1, 16, 16}},
      {"resnet18", nn::make_resnet18(rng, 3, 10, 4), {3, 8, 8}},
      {"kws_lstm", nn::make_kws_lstm(rng, 8, 16, 10), {12, 8}},
      {"kws_gru", nn::make_kws_gru(rng, 8, 16, 10), {12, 8}},
  };
  constexpr std::size_t kRows = 13;
  for (Case& c : cases) {
    Shape shape = {kRows};
    shape.insert(shape.end(), c.sample.begin(), c.sample.end());
    const Tensor x = Tensor::uniform(shape, rng);
    // Moves BatchNorm's running statistics off their initial values.
    c.model->set_training(true);
    c.model->forward(x);
    c.model->set_training(false);
    const Tensor whole = c.model->forward(x);
    const std::size_t classes = whole.numel() / kRows;
    std::vector<std::pair<std::size_t, std::size_t>> splits = {{0, 5},
                                                               {5, kRows}};
    for (std::size_t i = 0; i < kRows; ++i) splits.push_back({i, i + 1});
    for (const auto& [begin, end] : splits) {
      const Tensor part = c.model->forward(batch_rows(x, begin, end));
      ASSERT_EQ(part.numel(), (end - begin) * classes) << c.name;
      EXPECT_EQ(std::memcmp(part.raw(), whole.raw() + begin * classes,
                            part.numel() * sizeof(float)),
                0)
          << c.name << " rows [" << begin << ", " << end << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Runner determinism: the headline regression test
// ---------------------------------------------------------------------------

fl::SimulationResult run_with(fl::SyncStrategy& strategy,
                              std::size_t worker_threads,
                              double participation_fraction) {
  data::SyntheticImageSpec spec;
  spec.num_classes = 4;
  spec.channels = 1;
  spec.image_size = 8;
  spec.noise_stddev = 0.4;
  data::SyntheticImageDataset train(spec, 96, 1);
  data::SyntheticImageDataset test(spec, 48, 2);
  Rng prng(5);
  auto partition = data::iid_partition(train.size(), 6, prng);
  fl::FlConfig config;
  config.num_clients = 6;
  config.rounds = 8;
  config.local_iters = 2;
  config.batch_size = 8;
  config.eval_every = 2;
  config.participation_fraction = participation_fraction;
  config.worker_threads = worker_threads;
  fl::FederatedRunner runner(
      config, train, partition, test,
      [] {
        Rng rng(123);
        auto net = std::make_unique<nn::Sequential>();
        net->add(std::make_unique<nn::Flatten>(), "flatten");
        net->add(nn::make_mlp(rng, 64, 16, 1, 4), "mlp");
        return net;
      },
      [](nn::Module& m) {
        return std::make_unique<optim::Sgd>(m.parameters(), 0.1, 0.9);
      },
      strategy);
  return runner.run();
}

fl::SimulationResult run_simulation(std::size_t worker_threads,
                                    double participation_fraction) {
  core::ApfOptions opt;
  opt.check_every_rounds = 2;
  opt.ema_alpha = 0.7;
  opt.stability_threshold = 0.3;
  core::ApfManager strategy(opt);
  return run_with(strategy, worker_threads, participation_fraction);
}

void expect_bit_identical(const fl::SimulationResult& a,
                          const fl::SimulationResult& b,
                          const std::string& label) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << label;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const auto& ra = a.rounds[r];
    const auto& rb = b.rounds[r];
    EXPECT_EQ(ra.round, rb.round) << label << " round " << r;
    EXPECT_EQ(ra.test_accuracy, rb.test_accuracy) << label << " round " << r;
    EXPECT_EQ(ra.train_loss, rb.train_loss) << label << " round " << r;
    EXPECT_EQ(ra.bytes_per_client, rb.bytes_per_client)
        << label << " round " << r;
    EXPECT_EQ(ra.cumulative_bytes_per_client, rb.cumulative_bytes_per_client)
        << label << " round " << r;
    EXPECT_EQ(ra.participants, rb.participants) << label << " round " << r;
    EXPECT_EQ(ra.bytes_per_participant, rb.bytes_per_participant)
        << label << " round " << r;
    EXPECT_EQ(ra.frozen_fraction, rb.frozen_fraction)
        << label << " round " << r;
    EXPECT_EQ(ra.round_seconds, rb.round_seconds) << label << " round " << r;
    EXPECT_EQ(ra.cumulative_seconds, rb.cumulative_seconds)
        << label << " round " << r;
  }
  EXPECT_EQ(a.best_accuracy, b.best_accuracy) << label;
  EXPECT_EQ(a.final_accuracy, b.final_accuracy) << label;
  EXPECT_EQ(a.total_bytes_per_client, b.total_bytes_per_client) << label;
  EXPECT_EQ(a.total_seconds, b.total_seconds) << label;
  EXPECT_EQ(a.mean_frozen_fraction, b.mean_frozen_fraction) << label;
  EXPECT_EQ(a.final_global_params, b.final_global_params) << label;
}

TEST(RunnerDeterminism, SimulationResultBitIdenticalAcrossWorkerCounts) {
  const auto one = run_simulation(1, 1.0);
  const auto two = run_simulation(2, 1.0);
  const auto eight = run_simulation(8, 1.0);
  expect_bit_identical(one, two, "1-vs-2 threads");
  expect_bit_identical(one, eight, "1-vs-8 threads");
  // train_loss must be a real signal, not a zero that trivially matches.
  EXPECT_GT(one.rounds.front().train_loss, 0.0);
}

TEST(RunnerDeterminism, PartialParticipationBitIdenticalAcrossWorkerCounts) {
  const auto one = run_simulation(1, 0.5);
  const auto eight = run_simulation(8, 0.5);
  expect_bit_identical(one, eight, "partial participation 1-vs-8 threads");
}

// ---------------------------------------------------------------------------
// Byte accounting under partial participation
// ---------------------------------------------------------------------------

TEST(RunnerBytes, PerParticipantVsPerClientAccounting) {
  const auto partial = run_simulation(1, 0.5);
  for (const auto& r : partial.rounds) {
    // participation_fraction 0.5 of 6 clients -> 3 participants per round.
    EXPECT_EQ(r.participants, 3u);
    EXPECT_GT(r.bytes_per_participant, 0.0);
    // Same total traffic, different denominators: amortized-over-all-clients
    // (bytes_per_client) vs participants-only.
    EXPECT_NEAR(r.bytes_per_participant * 3.0, r.bytes_per_client * 6.0,
                1e-6 * r.bytes_per_client * 6.0);
    EXPECT_GT(r.bytes_per_participant, r.bytes_per_client);
  }
  const auto full = run_simulation(1, 1.0);
  for (const auto& r : full.rounds) {
    EXPECT_EQ(r.participants, 6u);
    // With everyone participating the two views coincide exactly.
    EXPECT_EQ(r.bytes_per_participant, r.bytes_per_client);
  }
}

// ---------------------------------------------------------------------------
// One lane budget per run: run() installs its pool as the compute pool
// ---------------------------------------------------------------------------

// Records the compute pool's lane count inside synchronize(), where the
// strategy-side codec work runs, then delegates to FedAvg — or throws, to
// exercise the restore-on-unwind path.
class LaneProbeSync : public fl::SyncStrategy {
 public:
  explicit LaneProbeSync(bool fail) : fail_(fail) {}

  void init(std::span<const float> initial_params,
            std::size_t num_clients) override {
    inner_.init(initial_params, num_clients);
  }
  Result synchronize(fl::RoundId round,
                     std::vector<std::vector<float>>& client_params,
                     const std::vector<double>& weights) override {
    lanes_seen.push_back(util::compute_pool().lanes());
    if (fail_) throw Error("LaneProbeSync: injected failure");
    return inner_.synchronize(round, client_params, weights);
  }
  std::span<const float> global_params() const override {
    return inner_.global_params();
  }
  std::string name() const override { return "LaneProbe"; }

  std::vector<std::size_t> lanes_seen;

 private:
  fl::FullSync inner_;
  bool fail_;
};

TEST(RunnerLaneBudget, StrategyWorkRunsOnTheRunnersLanes) {
  util::ThreadPool outer(2);
  const util::ScopedComputePool outer_scope(outer);
  for (const std::size_t workers : {1u, 3u}) {
    LaneProbeSync probe(/*fail=*/false);
    run_with(probe, workers, 1.0);
    ASSERT_FALSE(probe.lanes_seen.empty());
    for (const std::size_t lanes : probe.lanes_seen) {
      EXPECT_EQ(lanes, workers);
    }
    // A normal return restores the pool that was installed before run().
    EXPECT_EQ(&util::compute_pool(), &outer);
  }
}

TEST(RunnerLaneBudget, ThrowingRunRestoresTheComputePool) {
  util::ThreadPool outer(2);
  const util::ScopedComputePool outer_scope(outer);
  LaneProbeSync probe(/*fail=*/true);
  EXPECT_THROW(run_with(probe, 3, 1.0), Error);
  EXPECT_EQ(probe.lanes_seen, std::vector<std::size_t>{3});
  EXPECT_EQ(&util::compute_pool(), &outer);
}

TEST(RunnerLaneBudget, DefaultComputePoolIsRestoredAfterARun) {
  util::ThreadPool& before = util::compute_pool();
  LaneProbeSync probe(/*fail=*/false);
  run_with(probe, 3, 1.0);
  EXPECT_EQ(&util::compute_pool(), &before);
}

}  // namespace
}  // namespace apf
