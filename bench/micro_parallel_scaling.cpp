// Parallel-scaling micro-bench for the thread-pool runtime.
//
// Measures (a) kernel, layer and sync-path throughput and (b) federated-round
// wall time as a function of the worker count, and emits machine-readable
// JSON so CI can archive the perf trajectory:
//
//   BENCH_kernels.json  — per kernel x size x thread count: seconds/call
//                         (the median of individually timed calls, the
//                         thread counts taking turns),
//                         GFLOP/s, speedup vs the 1-thread (seed) kernel,
//                         and the instruction set that ran (simd);
//                         matmul_nt also at the kws LSTM gate shapes,
//                         conv2d_* rows time a ResNet stage-1 Conv2d, the
//                         lstm/lenet rows whole layers and models, the
//                         *_span rows the span activation kernels (tanh_libm
//                         the libm loop they reproduce), and the rest the
//                         APF bookkeeping and the masked fp16 sync path
//   BENCH_runner.json   — per thread count: wall seconds for a small LeNet
//                         federated run (the median of a few runs),
//                         seconds/round, speedup vs 1 thread, and the
//                         measured per-round bytes_per_client column
//                         (bit-identical across thread counts; CI diffs it)
//
// The schema is documented in docs/PARALLELISM.md. Results are wall-clock
// performance numbers only — the simulation outputs themselves are
// bit-identical for every thread count (that is the pool's contract, and
// tests/parallel_test.cpp asserts it).
//
// Flags (bench/harness.h):
//   --json-dir DIR   directory for BENCH_*.json (default: ".")
//   --threads LIST   comma-separated thread counts (default: 1,2,4)
//   --quick          fewer reps / a shorter runner for CI smoke runs
#include <algorithm>
#include <cmath>
#include <functional>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/perturbation.h"
#include "fl/flat_view.h"
#include "harness.h"
#include "nn/conv_layers.h"
#include "nn/lstm.h"
#include "nn/models.h"
#include "tensor/activations.h"
#include "tensor/ops.h"
#include "util/bitmap.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "wire/masked.h"
#include "wire/wire.h"

using namespace apf;

namespace {

struct KernelResult {
  std::string kernel;
  std::size_t m = 0, k = 0, n = 0;
  std::size_t threads = 0;
  double seconds_per_call = 0.0;
  double gflops = 0.0;
  double speedup_vs_1t = 1.0;
};

struct RunnerResult {
  std::size_t threads = 0;
  double wall_seconds = 0.0;
  double seconds_per_round = 0.0;
  double speedup_vs_1t = 1.0;
  // Measured wire traffic per round (RoundRecord::bytes_per_client). The
  // pool's determinism contract makes these bit-identical for every thread
  // count; CI diffs the arrays across runs to enforce it.
  std::vector<double> bytes_per_client_per_round;
};

// Times `fn` (which returns a value to keep live) on a pool of each thread
// count with bench::median_seconds, the counts taking turns call by call,
// and appends one row per count; `flops` is the arithmetic of one call.
template <typename Fn>
void bench_rows(const char* name, std::size_t m, std::size_t k, std::size_t n,
                double flops, const std::vector<std::size_t>& threads,
                std::size_t reps, const Fn& fn,
                std::vector<KernelResult>& results) {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  std::vector<std::function<float()>> variants;
  for (const std::size_t t : threads) {
    pools.push_back(std::make_unique<util::ThreadPool>(t));
    variants.push_back([&fn, &pool = *pools.back()] {
      const util::ScopedComputePool compute_scope(pool);
      return static_cast<float>(fn());
    });
  }
  const std::vector<double> seconds = bench::median_seconds(variants, reps);
  double base_seconds = 0.0;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    KernelResult r;
    r.kernel = name;
    r.m = m;
    r.k = k;
    r.n = n;
    r.threads = threads[i];
    r.seconds_per_call = seconds[i];
    r.gflops = flops / r.seconds_per_call / 1e9;
    if (r.threads == 1) base_seconds = r.seconds_per_call;
    r.speedup_vs_1t =
        base_seconds > 0.0 ? base_seconds / r.seconds_per_call : 1.0;
    results.push_back(r);
    std::cout << "  " << r.kernel << " " << m << "x" << k << "x" << n
              << " threads=" << r.threads << "  " << r.gflops
              << " GFLOP/s  (x" << r.speedup_vs_1t << ")\n";
  }
}

std::vector<KernelResult> bench_kernels(const std::vector<std::size_t>& threads,
                                        std::size_t reps) {
  using KernelFn = Tensor (*)(const Tensor&, const Tensor&);
  struct Spec {
    const char* name;
    KernelFn fn;
  };
  const std::vector<Spec> specs = {
      {"matmul", &matmul}, {"matmul_tn", &matmul_tn}, {"matmul_nt", &matmul_nt}};
  std::vector<KernelResult> results;
  for (const Spec& spec : specs) {
    for (const std::size_t size : {64u, 128u, 256u}) {
      Rng rng(1);
      const Tensor a = Tensor::uniform({size, size}, rng);
      const Tensor b = Tensor::uniform({size, size}, rng);
      const double flops = 2.0 * static_cast<double>(size) *
                           static_cast<double>(size) *
                           static_cast<double>(size);
      bench_rows(spec.name, size, size, size, flops, threads, reps,
                 [&] { return spec.fn(a, b)[0]; }, results);
    }
  }
  // The LSTM gate GEMMs of kws-lstm-async-eval: batch 16 (training) or 128
  // (evaluation) rows against W_ih (k = 8 features) or W_hh (k = 32 hidden),
  // 4 x 32 = 128 gate rows each; then the ResNet stem's dW (6 x 256 x 27).
  struct NtShape {
    std::size_t m, k, n;
  };
  for (const NtShape s : {NtShape{16, 8, 128}, NtShape{16, 32, 128},
                          NtShape{128, 8, 128}, NtShape{128, 32, 128},
                          NtShape{6, 256, 27}}) {
    Rng rng(3);
    const Tensor x = Tensor::uniform({s.m, s.k}, rng);
    const Tensor w = Tensor::uniform({s.n, s.k}, rng);
    bench_rows("matmul_nt", s.m, s.k, s.n, 2.0 * s.m * s.k * s.n, threads,
               8 * reps, [&] { return matmul_nt(x, w)[0]; }, results);
  }
  // ResNet-18 stage 1 of resnet-apfq-train: batch 16, 6 -> 6 channels,
  // 16x16, 3x3 pad 1. m, k, n are the GEMM the layer lowers to: out
  // channels, C*k*k and N*oh*ow. Backward does two such products (dW and
  // the input gradient). The eval forward keeps no backward caches.
  constexpr std::size_t kBatch = 16, kChannels = 6, kSize = 16;
  const std::size_t gm = kChannels, gk = kChannels * 9,
                    gn = kBatch * kSize * kSize;
  const double conv_flops = 2.0 * static_cast<double>(gm) *
                            static_cast<double>(gk) * static_cast<double>(gn);
  Rng rng(2);
  nn::Conv2d conv(kChannels, kChannels, 3, rng, 1, 1, false);
  const Tensor x =
      Tensor::uniform({kBatch, kChannels, kSize, kSize}, rng);
  const Tensor g = Tensor::uniform(conv.forward(x).shape(), rng);
  bench_rows("conv2d_forward", gm, gk, gn, conv_flops, threads, reps,
             [&] { return conv.forward(x)[0]; }, results);
  bench_rows("conv2d_backward", gm, gk, gn, 2.0 * conv_flops, threads, reps,
             [&] { return conv.backward(g)[0]; }, results);
  conv.set_training(false);
  bench_rows("conv2d_eval_forward", gm, gk, gn, conv_flops, threads, reps,
             [&] { return conv.forward(x)[0]; }, results);
  // Recurrent forwards over 16 steps, counted as their gate GEMMs; m, k, n
  // are one step's (batch, input + hidden summed over layers, 4 x hidden).
  // lstm_forward is one LSTM(8, 64) layer in training mode on a batch of
  // 16; kws_lstm_eval_forward is kws-lstm-async-eval's evaluation forward,
  // the 2-layer LSTM (8 features, hidden 32, 10 classes) on a batch of 128.
  constexpr std::size_t kSteps = 16;
  nn::LSTM lstm(8, 64, rng);
  const Tensor seq = Tensor::uniform({16, kSteps, 8}, rng);
  bench_rows("lstm_forward", 16, 8 + 64, 4 * 64,
             2.0 * 16 * (8 + 64) * 4 * 64 * kSteps, threads, reps,
             [&] { return lstm.forward(seq)[0]; }, results);
  auto kws = nn::make_kws_lstm(rng, 8, 32, 10);
  kws->set_training(false);
  const Tensor kws_seq = Tensor::uniform({128, kSteps, 8}, rng);
  bench_rows("kws_lstm_eval_forward", 128, (8 + 32) + (32 + 32), 4 * 32,
             2.0 * 128 * ((8 + 32) + (32 + 32)) * 4 * 32 * kSteps, threads,
             reps, [&] { return kws->forward(kws_seq)[0]; }, results);
  // One kws-lstm-async-eval training step: the 2-layer LSTM's forward and
  // backward on a batch of 16, timed inside the model's own heap like
  // resnet_train_step below. m, k, n as for the forwards above; its flops
  // are three times the forward gate GEMMs (forward, dW and the input and
  // recurrent gradients).
  auto kws_step = nn::make_kws_lstm(rng, 8, 32, 10);
  const Tensor kws_batch = Tensor::uniform({16, kSteps, 8}, rng);
  const Tensor kws_logits_grad({16, 10}, 0.1f);
  bench_rows("kws_lstm_train_step", 16, (8 + 32) + (32 + 32), 4 * 32,
             3.0 * 2.0 * 16 * ((8 + 32) + (32 + 32)) * 4 * 32 * kSteps,
             threads, reps,
             [&] {
               kws_step->zero_grad();
               kws_step->forward(kws_batch);
               return kws_step->backward(kws_logits_grad)[0];
             },
             results);
  // One LeNet-5 training step (forward and backward) on a batch of 16
  // 3x32x32 images: m, k, n are batch, input scalars per sample and
  // classes. Its flops are three times the forward GEMMs (forward, dW and
  // the input gradient): conv1 6x75x12544, conv2 16x150x1600 and the
  // 400-120-84-10 head.
  auto lenet = nn::make_lenet5(rng, 3, 32, 10, 1.0);
  const Tensor images = Tensor::uniform({16, 3, 32, 32}, rng);
  const Tensor logits_grad({16, 10}, 0.1f);
  const double lenet_flops =
      3.0 * 2.0 *
      (6.0 * 75 * 12544 + 16.0 * 150 * 1600 +
       16.0 * (400 * 120 + 120 * 84 + 84 * 10));
  bench_rows("lenet_train_step", 16, 3 * 32 * 32, 10, lenet_flops, threads,
             reps,
             [&] {
               lenet->zero_grad();
               lenet->forward(images);
               return lenet->backward(logits_grad)[0];
             },
             results);
  // One resnet-apfq-train training step: width-6 ResNet-18 forward and
  // backward on a batch of 16 3x16x16 images, m, k, n as for LeNet. Timed
  // inside the whole model, whose caches keep the heap at its working size
  // (a lone conv layer timed in a loop measures glibc returning and
  // faulting in its temporaries instead). Its flops are three times the
  // forward GEMMs: the stem, per stage a first 3x3 conv (stride 2 from
  // stage 2, with a 1x1 projection), three more 3x3 convs, and the head.
  Rng resnet_rng(4);
  auto resnet_step = nn::make_resnet18(resnet_rng, 3, 10, /*base_width=*/6);
  const Tensor resnet_images = Tensor::uniform({16, 3, 16, 16}, resnet_rng);
  double resnet_flops = 2.0 * 6 * 27 * 16 * 16 * 16;
  for (std::size_t stage = 0, in_c = 6, side = 16; stage < 4; ++stage) {
    const std::size_t out_c = std::size_t{6} << stage;
    side = stage == 0 ? side : side / 2;
    const double positions = 16.0 * side * side;
    resnet_flops += 2.0 * out_c * positions *
                    (in_c * 9 + 3 * out_c * 9 + (stage == 0 ? 0 : in_c));
    in_c = out_c;
  }
  resnet_flops = 3.0 * (resnet_flops + 2.0 * 16 * 48 * 10);
  bench_rows("resnet_train_step", 16, 3 * 16 * 16, 10, resnet_flops, threads,
             reps,
             [&] {
               resnet_step->zero_grad();
               resnet_step->forward(resnet_images);
               return resnet_step->backward(logits_grad)[0];
             },
             results);
  // The rows below count one operation per element or scalar (n of them,
  // m = k = 1), so their gflops column is G elements/s. The kernels are
  // serial, so their thread rows differ only by noise; the shorter a call,
  // the more reps it gets.
  //
  // apf::tanh and apf::sigmoid over 4096 gate pre-activations, and the
  // libm tanhf loop that apf::tanh reproduces bit for bit.
  constexpr std::size_t kSpanElems = 4096;
  const Tensor pre = Tensor::uniform({kSpanElems}, rng, -4.f, 4.f);
  Tensor act({kSpanElems});
  bench_rows("tanh_span", 1, 1, kSpanElems, kSpanElems, threads, 256 * reps,
             [&] {
               apf::tanh(pre.data(), act.data());
               return act[0];
             },
             results);
  bench_rows("tanh_libm", 1, 1, kSpanElems, kSpanElems, threads, 32 * reps,
             [&] {
               for (std::size_t i = 0; i < kSpanElems; ++i) {
                 act[i] = std::tanh(pre[i]);
               }
               return act[0];
             },
             results);
  bench_rows("sigmoid_span", 1, 1, kSpanElems, kSpanElems, threads,
             256 * reps,
             [&] {
               apf::sigmoid(pre.data(), act.data());
               return act[0];
             },
             results);
  // APF's per-check bookkeeping at LeNet-5's dimension and at 2^20: the EMA
  // perturbation fold and the frozen-mask popcount.
  for (const std::size_t dim : {std::size_t{62006}, std::size_t{1} << 20}) {
    core::EmaPerturbation ema(dim, 0.99);
    std::vector<float> delta(dim);
    for (float& v : delta) v = rng.uniform_float(-0.1f, 0.1f);
    bench_rows("ema_fold", 1, 1, dim, static_cast<double>(dim), threads, reps,
               [&] {
                 ema.update(delta);
                 return static_cast<float>(ema.value(0));
               },
               results);
    Bitmap mask(dim, false);
    for (std::size_t i = 0; i < dim / 3; ++i) {
      mask.set(rng.uniform_int(std::uint64_t{dim}), true);
    }
    bench_rows("bitmap_count", 1, 1, dim, static_cast<double>(dim), threads,
               16 * reps,
               [&] { return static_cast<float>(mask.count()); }, results);
  }
  // The resnet-apfq-train sync path: make_resnet18 at base width 6 has
  // 99,616 scalars, and the workload's freezing mask sits near 39% frozen.
  // masked_pack and masked_unpack move the unfrozen scalars, pin_masked
  // resets the frozen ones in the live model, and fp16_round_trip is one
  // QuantizedSync push (pack, fp16 encode, decode, unpack).
  auto resnet = nn::make_resnet18(rng, 3, 10, /*base_width=*/6);
  fl::FlatParamView view(*resnet);
  const std::size_t dim = view.dim();
  const Tensor& first_weights = resnet->parameters().front().param->value;
  Bitmap frozen(dim, false);
  for (std::size_t j = 0; j < dim; ++j) frozen.set(j, rng.bernoulli(0.39));
  std::vector<float> params(dim);
  for (float& v : params) v = rng.uniform_float(-1.f, 1.f);
  const std::vector<float> payload = wire::pack_unfrozen(params, frozen);
  bench_rows("masked_pack", 1, 1, dim, static_cast<double>(dim), threads,
             8 * reps,
             [&] { return wire::pack_unfrozen(params, frozen)[0]; }, results);
  bench_rows("masked_unpack", 1, 1, dim, static_cast<double>(dim), threads,
             8 * reps,
             [&] {
               wire::unpack_unfrozen(payload, frozen, params);
               return params[0];
             },
             results);
  bench_rows("pin_masked", 1, 1, dim, static_cast<double>(dim), threads,
             8 * reps,
             [&] {
               view.pin_masked(frozen, params);
               return first_weights[0];
             },
             results);
  bench_rows("fp16_round_trip", 1, 1, dim, static_cast<double>(dim),
             threads, 8 * reps,
             [&] {
               const std::vector<std::uint8_t> frame = wire::encode_fp16_payload(
                   wire::pack_unfrozen(params, frozen));
               wire::unpack_unfrozen(wire::decode_fp16_payload(frame), frozen,
                                     params);
               return params[0];
             },
             results);
  return results;
}

std::vector<RunnerResult> bench_runner(const std::vector<std::size_t>& threads,
                                       bool quick, std::size_t reps) {
  bench::TaskOptions topt;
  topt.num_clients = 4;
  topt.rounds = quick ? 2 : 4;
  topt.local_iters = 2;
  topt.batch_size = 16;
  topt.train_samples = quick ? 128 : 256;
  topt.test_samples = quick ? 64 : 128;
  topt.eval_every = topt.rounds;
  // The thread counts take turns run by run, and each row keeps the median
  // wall time of its `reps` runs. Every run measures the same bytes (the
  // determinism contract), so each row keeps its last run's.
  std::vector<std::vector<double>> walls(threads.size());
  std::vector<fl::SimulationResult> sims(threads.size());
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < threads.size(); ++i) {
      bench::TaskBundle task = bench::lenet_task(topt);
      task.config.worker_threads = threads[i];
      fl::FullSync strategy;
      fl::FederatedRunner runner(task.config, *task.train, task.partition,
                                 *task.test, task.model, task.optimizer,
                                 strategy);
      const double start = bench::now_seconds();
      sims[i] = runner.run();
      walls[i].push_back(bench::now_seconds() - start);
    }
  }
  std::vector<RunnerResult> results;
  double base_seconds = 0.0;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    RunnerResult r;
    r.threads = threads[i];
    r.wall_seconds = bench::median(walls[i]);
    r.seconds_per_round =
        r.wall_seconds / static_cast<double>(sims[i].rounds.size());
    for (const fl::RoundRecord& rec : sims[i].rounds) {
      r.bytes_per_client_per_round.push_back(rec.bytes_per_client);
    }
    if (r.threads == 1) base_seconds = r.wall_seconds;
    r.speedup_vs_1t =
        base_seconds > 0.0 ? base_seconds / r.wall_seconds : 1.0;
    results.push_back(r);
    std::cout << "  runner threads=" << r.threads << "  "
              << r.seconds_per_round << " s/round  (x" << r.speedup_vs_1t
              << ")\n";
  }
  return results;
}

void write_kernels_json(const std::string& path,
                        const std::vector<KernelResult>& results) {
  std::ofstream out(path);
  APF_CHECK_MSG(out.good(), "cannot open " << path);
  out << "{\n  \"schema\": \"apf-bench-kernels-v1\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"m\": " << r.m
        << ", \"k\": " << r.k << ", \"n\": " << r.n
        << ", \"threads\": " << r.threads << ", \"simd\": \""
        << gemm_simd_path() << "\""
        << ", \"seconds_per_call\": " << r.seconds_per_call
        << ", \"gflops\": " << r.gflops
        << ", \"speedup_vs_1t\": " << r.speedup_vs_1t << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void write_runner_json(const std::string& path,
                       const std::vector<RunnerResult>& results,
                       std::size_t rounds) {
  std::ofstream out(path);
  APF_CHECK_MSG(out.good(), "cannot open " << path);
  // max_digits10 keeps the byte columns round-trippable, so a textual diff
  // of the arrays across runs is exactly the bit-identity check.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\n  \"schema\": \"apf-bench-runner-v1\",\n  \"task\": "
      << "\"lenet-small\",\n  \"rounds\": " << rounds << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunnerResult& r = results[i];
    out << "    {\"threads\": " << r.threads
        << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"seconds_per_round\": " << r.seconds_per_round
        << ", \"speedup_vs_1t\": " << r.speedup_vs_1t
        << ", \"bytes_per_client_per_round\": [";
    for (std::size_t j = 0; j < r.bytes_per_client_per_round.size(); ++j) {
      out << (j ? ", " : "") << r.bytes_per_client_per_round[j];
    }
    out << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  auto [json_dir, threads, quick] =
      bench::parse_json_bench_args(argc, argv, {1, 2, 4});
  // The 1-thread column is the speedup baseline; make sure it is present
  // and measured first.
  if (std::find(threads.begin(), threads.end(), std::size_t{1}) ==
      threads.end()) {
    threads.insert(threads.begin(), 1);
  }
  std::sort(threads.begin(), threads.end());

  const std::size_t reps = quick ? 11 : 21;  // odd: the median is one call

  std::cout << "=== micro_parallel_scaling: kernel throughput ===\n";
  const auto kernels = bench_kernels(threads, reps);
  std::cout << "=== micro_parallel_scaling: federated round wall time ===\n";
  const auto runner = bench_runner(threads, quick, quick ? 3 : 5);

  const std::string kernels_path = json_dir + "/BENCH_kernels.json";
  const std::string runner_path = json_dir + "/BENCH_runner.json";
  write_kernels_json(kernels_path, kernels);
  write_runner_json(runner_path, runner, quick ? 2 : 4);
  std::cout << "wrote " << kernels_path << " and " << runner_path << "\n";
  return 0;
}
