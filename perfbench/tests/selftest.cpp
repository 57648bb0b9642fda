// Decorator self-test: the tracing decorators must leave the simulation
// bit-identical, and the span breakdown must be physically possible.
//
// For tiny tasks in both aggregation modes, with and without BatchNorm, and
// with a freezing strategy (bare and under the fp16 wrapper, which nests
// one traced strategy in another), runs the task bare and traced and checks
//   - every RoundRecord, the final-params digest and the summary fields of
//     SimulationResult agree bit for bit;
//   - in every round, busy time summed over lanes (training plus
//     evaluation) divided by the lane count never exceeds the round's wall
//     time, and the runner's own time is never negative.
// Exit code 0 when every case passes.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis.h"
#include "compress/quantized_sync.h"
#include "core/apf_manager.h"
#include "util/thread_pool.h"
#include "workloads.h"

using namespace apf;
using namespace apf::perfbench;

namespace {

struct Case {
  std::string name;
  std::function<bench::TaskBundle()> task;
  StrategyFactory strategy;
};

bench::TaskOptions tiny(std::size_t clients, std::size_t rounds) {
  bench::TaskOptions options;
  options.num_clients = clients;
  options.rounds = rounds;
  options.local_iters = 2;
  options.batch_size = 8;
  options.train_samples = clients * 24;
  options.test_samples = 300;  // three evaluation batches: replicas on lanes
  options.eval_every = 1;
  options.seed = 7;
  return options;
}

std::unique_ptr<fl::SyncStrategy> wrap(std::unique_ptr<fl::SyncStrategy> s,
                                       Tracer* tracer, bool nested) {
  if (tracer == nullptr) return s;
  return std::make_unique<TracedStrategy>(std::move(s), *tracer, nested);
}

StrategyFactory fedavg() {
  return [](Tracer* t) {
    return wrap(std::make_unique<fl::FullSync>(), t, false);
  };
}

StrategyFactory apf() {
  return [](Tracer* t) {
    return wrap(std::make_unique<core::ApfManager>(bench::default_apf_options()),
                t, false);
  };
}

StrategyFactory apf_fp16() {
  return [](Tracer* t) {
    return wrap(std::make_unique<compress::QuantizedSync>(wrap(
                    std::make_unique<core::ApfManager>(
                        bench::default_apf_options()),
                    t, true)),
                t, false);
  };
}

bench::TaskBundle with_lanes(bench::TaskBundle task) {
  task.config.worker_threads = 2;
  return task;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"sync lenet fedavg",
                 [] { return with_lanes(bench::lenet_task(tiny(3, 3))); },
                 fedavg()});
  out.push_back({"sync resnet (batchnorm) fedavg",
                 [] { return with_lanes(bench::resnet_task(tiny(2, 2))); },
                 fedavg()});
  out.push_back({"sync lenet apf (freezing)",
                 [] { return with_lanes(bench::lenet_task(tiny(3, 6))); },
                 apf()});
  out.push_back({"sync lenet apf under fp16 (nested)",
                 [] { return with_lanes(bench::lenet_task(tiny(3, 6))); },
                 apf_fp16()});
  out.push_back({"async lstm fedavg",
                 [] {
                   bench::TaskBundle task =
                       with_lanes(bench::lstm_task(tiny(4, 5)));
                   task.config.aggregation_mode =
                       fl::AggregationMode::kAsyncBuffered;
                   task.config.async_goal_k = 2;
                   task.config.async_timeout_seconds = 1.0;
                   task.config.compute_multiplier = {1.0, 1.0, 4.0, 16.0};
                   return task;
                 },
                 fedavg()});
  return out;
}

bool same_result(const fl::SimulationResult& a, const fl::SimulationResult& b,
                 std::string& why) {
  if (a.rounds.size() != b.rounds.size()) {
    why = "round counts differ";
    return false;
  }
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    if (!same_record(a.rounds[i], b.rounds[i])) {
      why = "round " + std::to_string(i + 1) + " record differs";
      return false;
    }
  }
  if (params_digest(a) != params_digest(b) ||
      a.final_global_params.size() != b.final_global_params.size()) {
    why = "final parameters differ";
    return false;
  }
  const double fa[] = {a.best_accuracy, a.final_accuracy,
                       a.total_bytes_per_client, a.total_seconds,
                       a.mean_frozen_fraction};
  const double fb[] = {b.best_accuracy, b.final_accuracy,
                       b.total_bytes_per_client, b.total_seconds,
                       b.mean_frozen_fraction};
  if (std::memcmp(fa, fb, sizeof(fa)) != 0) {
    why = "summary fields differ";
    return false;
  }
  return true;
}

bool spans_fit(const RunOutcome& traced, std::size_t lanes, std::string& why) {
  const std::vector<RoundBreakdown> rounds = break_down(traced);
  if (rounds.size() != traced.result.rounds.size()) {
    why = "observer stamped " + std::to_string(rounds.size()) + " rounds";
    return false;
  }
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const RoundBreakdown& b = rounds[r];
    const double per_lane =
        (b.train_busy_s + b.eval_s) / static_cast<double>(lanes);
    if (per_lane > b.wall_s || b.runner_self_s < 0.0 ||
        b.forward_us.empty() || b.train_wall_s > b.wall_s) {
      why = "round " + std::to_string(r + 1) + ": busy/lanes " +
            std::to_string(per_lane) + " s, wall " + std::to_string(b.wall_s) +
            " s, runner self " + std::to_string(b.runner_self_s) + " s, " +
            std::to_string(b.forward_us.size()) + " forward calls";
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  util::ThreadPool compute(2);
  util::set_compute_pool(&compute);
  int failures = 0;
  for (const Case& c : cases()) {
    std::string why;
    bool ok = false;
    try {
      const RunOutcome bare = run_task(c.task(), c.strategy, false, false, 0);
      const RunOutcome traced = run_task(c.task(), c.strategy, true, false, 0);
      ok = same_result(bare.result, traced.result, why) &&
           spans_fit(traced, traced.config.worker_threads, why);
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    std::printf("%s  %s%s%s\n", ok ? "PASS" : "FAIL", c.name.c_str(),
                ok ? "" : "  ", why.c_str());
    failures += ok ? 0 : 1;
  }
  util::set_compute_pool(nullptr);
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}
