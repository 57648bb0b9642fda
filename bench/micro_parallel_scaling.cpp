// Parallel-scaling micro-bench for the thread-pool runtime.
//
// Measures (a) the matmul-family, Conv2d and tanh kernel throughput and (b)
// federated-round wall time as a function of the worker count, and emits
// machine-readable JSON so CI can archive the perf trajectory:
//
//   BENCH_kernels.json  — per kernel x size x thread count: seconds/call
//                         (the median of individually timed calls, the
//                         thread counts taking turns),
//                         GFLOP/s, speedup vs the 1-thread (seed) kernel,
//                         and the instruction set that ran (simd);
//                         matmul_nt also at the kws LSTM gate shapes,
//                         conv2d_* rows time a ResNet stage-1 Conv2d,
//                         tanh_span and sigmoid_span the span activation
//                         kernels
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
// Flags:
//   --json-dir DIR   directory for BENCH_*.json (default: ".")
//   --threads LIST   comma-separated thread counts (default: 1,2,4)
//   --quick          smaller sizes / fewer reps for CI smoke runs
#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "nn/conv_layers.h"
#include "tensor/activations.h"
#include "tensor/ops.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace apf;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

// Median of `samples` (reordered in place).
double median(std::vector<double>& samples) {
  const auto mid = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

// Times `fn` (which returns a value to keep live) on a pool of each thread
// count and appends one row per count; `flops` is the arithmetic of one
// call. The counts take turns call by call, after one warm-up call each,
// and a row reports the median of its `reps` calls. So host drift slows
// every count alike, and a descheduled call does not read as a slowdown.
template <typename Fn>
void bench_rows(const char* name, std::size_t m, std::size_t k, std::size_t n,
                double flops, const std::vector<std::size_t>& threads,
                std::size_t reps, const Fn& fn,
                std::vector<KernelResult>& results) {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (const std::size_t t : threads)
    pools.push_back(std::make_unique<util::ThreadPool>(t));
  std::vector<std::vector<double>> seconds(threads.size());
  volatile float sink = 0.f;
  for (std::size_t rep = 0; rep <= reps; ++rep) {
    for (std::size_t i = 0; i < threads.size(); ++i) {
      const util::ScopedComputePool compute_scope(*pools[i]);
      const double start = now_seconds();
      sink = sink + fn();
      if (rep > 0) seconds[i].push_back(now_seconds() - start);
    }
  }
  (void)sink;
  double base_seconds = 0.0;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    KernelResult r;
    r.kernel = name;
    r.m = m;
    r.k = k;
    r.n = n;
    r.threads = threads[i];
    r.seconds_per_call = median(seconds[i]);
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
                                        const std::vector<std::size_t>& sizes,
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
    for (const std::size_t size : sizes) {
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
  // 4 x 32 = 128 gate rows each.
  for (const std::size_t m : {16u, 128u}) {
    for (const std::size_t k : {8u, 32u}) {
      constexpr std::size_t kGates = 128;
      Rng rng(3);
      const Tensor x = Tensor::uniform({m, k}, rng);
      const Tensor w = Tensor::uniform({kGates, k}, rng);
      bench_rows("matmul_nt", m, k, kGates, 2.0 * m * k * kGates, threads,
                 8 * reps, [&] { return matmul_nt(x, w)[0]; }, results);
    }
  }
  // ResNet-18 stage 1 of resnet-apfq-train: batch 16, 6 -> 6 channels,
  // 16x16, 3x3 pad 1. m, k, n are the GEMM the layer lowers to: out
  // channels, C*k*k and N*oh*ow. Backward does two such products (dW and
  // the input gradient).
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
  // apf::tanh over 4096 gate pre-activations, counted as one flop per
  // element. The kernel is serial, so its rows only show call-to-call noise
  // across thread counts; a call is microseconds, hence the extra reps.
  // sigmoid_span times apf::sigmoid the same way.
  constexpr std::size_t kSpanElems = 4096;
  const Tensor pre = Tensor::uniform({kSpanElems}, rng, -4.f, 4.f);
  Tensor act({kSpanElems});
  bench_rows("tanh_span", 1, 1, kSpanElems, kSpanElems, threads, 256 * reps,
             [&] {
               apf::tanh(pre.data(), act.data());
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
      const double start = now_seconds();
      sims[i] = runner.run();
      walls[i].push_back(now_seconds() - start);
    }
  }
  std::vector<RunnerResult> results;
  double base_seconds = 0.0;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    RunnerResult r;
    r.threads = threads[i];
    r.wall_seconds = median(walls[i]);
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

std::vector<std::size_t> parse_thread_list(const std::string& arg) {
  std::vector<std::size_t> threads;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const long v = std::stol(item);
    APF_CHECK_MSG(v > 0, "bad thread count " << item);
    threads.push_back(static_cast<std::size_t>(v));
  }
  APF_CHECK(!threads.empty());
  return threads;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_dir = ".";
  std::vector<std::size_t> threads = {1, 2, 4};
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-dir") == 0 && i + 1 < argc) {
      json_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = parse_thread_list(argv[++i]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--json-dir DIR] [--threads 1,2,4] [--quick]\n";
      return 2;
    }
  }
  // The 1-thread column is the speedup baseline; make sure it is present
  // and measured first.
  if (std::find(threads.begin(), threads.end(), std::size_t{1}) ==
      threads.end()) {
    threads.insert(threads.begin(), 1);
  }
  std::sort(threads.begin(), threads.end());

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{128} : std::vector<std::size_t>{128, 256};
  const std::size_t reps = quick ? 11 : 21;  // odd: the median is one call

  std::cout << "=== micro_parallel_scaling: kernel throughput ===\n";
  const auto kernels = bench_kernels(threads, sizes, reps);
  std::cout << "=== micro_parallel_scaling: federated round wall time ===\n";
  const auto runner = bench_runner(threads, quick, quick ? 3 : 5);

  std::filesystem::create_directories(json_dir);
  const std::string kernels_path = json_dir + "/BENCH_kernels.json";
  const std::string runner_path = json_dir + "/BENCH_runner.json";
  write_kernels_json(kernels_path, kernels);
  write_runner_json(runner_path, runner, quick ? 2 : 4);
  std::cout << "wrote " << kernels_path << " and " << runner_path << "\n";
  return 0;
}
