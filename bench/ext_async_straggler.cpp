// Extension — asynchronous buffered aggregation under stragglers.
//
// The paper's testbed is BSP: every round barriers on its slowest client, so
// one 16x-slow device stretches every round. FedBuff-style buffered
// asynchrony (AggregationMode::kAsyncBuffered, docs/TRANSPORT.md
// "Asynchronous rounds") commits as soon as goal-K pushes arrive and lets
// stragglers' pushes carry into later commits with a staleness-discounted
// weight. This driver runs FedAvg both ways over the SAME deterministic
// heavy-tailed compute distribution and reports the trade:
//
//   - simulated seconds and rounds to a fixed target accuracy,
//   - cumulative bytes per client (identical training, so the async saving
//     is pure time, not traffic),
//   - the staleness histogram of every folded contribution.
//
// The full SimulationResult of each mode is asserted bit-identical across
// every --threads value (the runner's lane-invariance contract extends to
// the async path), so the JSON is reproducible byte-for-byte.
//
// Flags (bench/harness.h):
//   --json-dir DIR   directory for BENCH_async_straggler.json (default ".")
//   --threads LIST   comma-separated worker_threads values (default: 1,4)
//   --quick          fewer rounds / smaller task for CI smoke runs
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/runner.h"
#include "fl/sync_strategy.h"
#include "harness.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "optim/optimizer.h"
#include "util/error.h"
#include "util/rng.h"

using namespace apf;

namespace {

struct ModeReport {
  std::string mode;
  std::size_t threads = 0;
  fl::SimulationResult result;
};

/// Deterministic heavy-tailed compute-speed distribution: most clients run
/// at 1x, every fifth at 4x, and client 7 (mod 10) is the 16x straggler the
/// BSP barrier pays for every round.
std::vector<double> straggler_multipliers(std::size_t n) {
  std::vector<double> mult(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 10 == 7) {
      mult[i] = 16.0;
    } else if (i % 5 == 3) {
      mult[i] = 4.0;
    }
  }
  return mult;
}

fl::SimulationResult run_mode(fl::AggregationMode mode, std::size_t threads,
                              std::size_t num_clients, std::size_t rounds,
                              const data::Dataset& train,
                              const data::Dataset& test,
                              const data::Partition& partition) {
  fl::FlConfig config;
  config.num_clients = num_clients;
  config.rounds = rounds;
  config.local_iters = 2;
  config.batch_size = 8;
  config.seed = 2021;
  config.compute_seconds_per_iter = 0.5;
  config.eval_every = 2;
  config.worker_threads = threads;
  config.compute_multiplier = straggler_multipliers(num_clients);
  config.aggregation_mode = mode;
  if (mode == fl::AggregationMode::kAsyncBuffered) {
    // Commit at half the fleet; the straggler's push folds into a later
    // commit with a discounted weight instead of stalling everyone.
    config.async_goal_k = num_clients / 2;
    config.async_timeout_seconds = 8.0;
  }

  const fl::ModelFactory model_factory = [] {
    Rng rng(4242);
    auto net = std::make_unique<nn::Sequential>();
    net->add(std::make_unique<nn::Flatten>(), "flatten");
    net->add(nn::make_mlp(rng, 64, 16, 1, 4), "mlp");
    return net;
  };
  const fl::OptimizerFactory optimizer_factory = [](nn::Module& module) {
    return std::make_unique<optim::Sgd>(module.parameters(), /*lr=*/0.05);
  };

  fl::FullSync strategy;
  fl::FederatedRunner runner(config, train, partition, test, model_factory,
                             optimizer_factory, strategy);
  return runner.run();
}

/// First (cumulative seconds, round) at which an evaluated accuracy reached
/// `target`; {-1, 0} when the run never got there.
std::pair<double, std::size_t> time_to_accuracy(
    const fl::SimulationResult& result, double target) {
  for (const fl::RoundRecord& rec : result.rounds) {
    if (rec.test_accuracy >= target) {
      return {rec.cumulative_seconds, rec.round.value()};
    }
  }
  return {-1.0, 0};
}

void check_identical(const fl::SimulationResult& a,
                     const fl::SimulationResult& b, const std::string& mode) {
  APF_CHECK_MSG(a.rounds.size() == b.rounds.size(),
                mode << " round count differs across thread counts");
  APF_CHECK_MSG(a.final_global_params.size() == b.final_global_params.size() &&
                    std::memcmp(a.final_global_params.data(),
                                b.final_global_params.data(),
                                a.final_global_params.size() *
                                    sizeof(float)) == 0,
                mode << " final params differ across thread counts");
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    const fl::RoundRecord& x = a.rounds[i];
    const fl::RoundRecord& y = b.rounds[i];
    APF_CHECK_MSG(
        x.participants == y.participants && x.staleness == y.staleness &&
            std::memcmp(&x.bytes_per_client, &y.bytes_per_client,
                        sizeof(double)) == 0 &&
            std::memcmp(&x.round_seconds, &y.round_seconds,
                        sizeof(double)) == 0 &&
            std::memcmp(&x.test_accuracy, &y.test_accuracy,
                        sizeof(double)) == 0,
        mode << " round " << i + 1 << " differs across thread counts");
  }
}

void write_json(const std::string& path,
                const std::vector<ModeReport>& reports, double target) {
  std::ofstream out(path);
  APF_CHECK_MSG(out.good(), "cannot open " << path);
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\n  \"schema\": \"apf-bench-async-straggler-v1\",\n"
      << "  \"target_accuracy\": " << target << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const ModeReport& m = reports[i];
    const auto [seconds, round] = time_to_accuracy(m.result, target);
    out << "    {\"mode\": \"" << m.mode << "\", \"threads\": " << m.threads
        << ", \"seconds_to_target\": " << seconds
        << ", \"rounds_to_target\": " << round
        << ",\n     \"total_seconds\": " << m.result.total_seconds
        << ", \"total_bytes_per_client\": " << m.result.total_bytes_per_client
        << ", \"final_accuracy\": " << m.result.final_accuracy
        << ",\n     \"round_seconds\": [";
    for (std::size_t j = 0; j < m.result.rounds.size(); ++j) {
      out << (j ? ", " : "") << m.result.rounds[j].round_seconds;
    }
    out << "],\n     \"staleness\": [";
    bool first = true;
    for (const fl::RoundRecord& rec : m.result.rounds) {
      for (const auto& [client, staleness] : rec.staleness) {
        out << (first ? "" : ", ") << staleness;
        first = false;
      }
    }
    out << "]}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto [json_dir, threads, quick] =
      bench::parse_json_bench_args(argc, argv, {1, 4});
  const std::size_t num_clients = 10;
  const std::size_t rounds = quick ? 16 : 48;
  const double target = 0.5;

  data::SyntheticImageSpec spec;
  spec.num_classes = 4;
  spec.channels = 1;
  spec.image_size = 8;
  spec.noise_stddev = 0.3;
  spec.seed = 11;
  const data::SyntheticImageDataset train(spec, quick ? 160u : 400u,
                                          /*split_seed=*/0xA5A5ULL);
  const data::SyntheticImageDataset test(spec, quick ? 80u : 200u,
                                         /*split_seed=*/0x5A5AULL);
  Rng part_rng(77);
  const data::Partition partition =
      data::iid_partition(train.size(), num_clients, part_rng);

  std::cout << "=== ext_async_straggler: BSP vs buffered async under a 16x "
               "straggler ===\n";
  std::vector<ModeReport> reports;
  for (const std::size_t t : threads) {
    for (const auto mode : {fl::AggregationMode::kSynchronous,
                            fl::AggregationMode::kAsyncBuffered}) {
      ModeReport report;
      report.mode = mode == fl::AggregationMode::kSynchronous ? "sync"
                                                              : "async";
      report.threads = t;
      report.result = run_mode(mode, t, num_clients, rounds, train, test,
                               partition);
      const auto [seconds, round] = time_to_accuracy(report.result, target);
      std::cout << "  " << report.mode << " threads=" << t
                << "  total_seconds=" << report.result.total_seconds
                << "  seconds_to_" << target << "=" << seconds
                << " (round " << round << ")"
                << "  final_acc=" << report.result.final_accuracy << "\n";
      reports.push_back(std::move(report));
    }
  }
  // Lane invariance: every worker_threads value reproduces the identical
  // simulation, async staleness sequences included.
  for (const ModeReport& a : reports) {
    for (const ModeReport& b : reports) {
      if (a.mode == b.mode) check_identical(a.result, b.result, a.mode);
    }
  }
  write_json(json_dir + "/BENCH_async_straggler.json", reports, target);

  // The async mode must actually beat the barrier in simulated time: its
  // rounds do not wait for the 16x client.
  const auto sync_it = time_to_accuracy(reports[0].result, target);
  const auto async_it = time_to_accuracy(reports[1].result, target);
  if (sync_it.first > 0 && async_it.first > 0) {
    std::cout << "async reaches " << target << " in " << async_it.first
              << " s vs sync " << sync_it.first << " s ("
              << sync_it.first / async_it.first << "x)\n";
  }
  return 0;
}
