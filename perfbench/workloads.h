// The benchmark's workloads and the one code path that runs them.
//
// Each workload is one closed-loop simulation in one process: the runner
// trains, synchronizes and evaluates round after round with no external
// arrivals, so the next round starts when the previous one ends. The seed
// drives the synthetic data, the partition and the model initialization;
// everything else is fixed here.
//
// Every workload keeps a constant learning rate: Optimizer::set_lr is not
// virtual, so a schedule set by the runner would reach the tracing
// decorator and not the wrapped optimizer, and the traced run would diverge
// from the timed one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "fl/runner.h"
#include "trace.h"

namespace apf::perfbench {

/// Builds a strategy; wrapped in TracedStrategy (and any strategy it wraps
/// in turn, nested) when `tracer` is non-null.
using StrategyFactory =
    std::function<std::unique_ptr<fl::SyncStrategy>(Tracer* tracer)>;

struct Workload {
  std::string name;
  /// Execution lanes: FlConfig::worker_threads and the compute pool size.
  std::size_t lanes = 1;
  /// Steady-round wall time on the reference host (4-core x86 VM, Release
  /// build). Only sizes the run: ceil(seconds / nominal) steady rounds, so
  /// the round count, and with it every output, depends on --seconds and
  /// --seed alone.
  double nominal_round_s = 0.1;
  /// Evaluates every round; otherwise only the final round evaluates and
  /// that round is left out of the steady rounds.
  bool eval_every_round = false;
  /// Full-model FedAvg traffic, so every round's bytes must equal the
  /// wire::encode_dense frame sizes.
  bool dense = false;
  /// The task (data, partition, factories, FlConfig) for a seed and a
  /// round count.
  std::function<bench::TaskBundle(std::uint64_t seed, std::size_t rounds)>
      task;
  StrategyFactory strategy;
};

const std::vector<Workload>& all_workloads();
const Workload* find_workload(std::string_view name);

/// Total rounds of a run measuring about `seconds` of steady rounds.
std::size_t planned_rounds(const Workload& workload, double seconds);

/// Whether 1-based `round` of a `rounds`-round run is a steady round: not
/// round 1 (client, pool and strategy set-up) and not the final evaluating
/// round of a workload that otherwise never evaluates.
bool is_steady_round(const Workload& workload, std::size_t round,
                     std::size_t rounds);

/// What one simulation produced, with the wall-clock stamps taken around it.
struct RunOutcome {
  fl::SimulationResult result;
  fl::FlConfig config;
  std::int64_t build_begin_ns = 0;  // before the task was built
  std::int64_t run_begin_ns = 0;    // just before FederatedRunner::run()
  std::int64_t run_end_ns = 0;      // just after it returned
  /// Observer stamp at the end of each round (round r at index r - 1).
  std::vector<std::int64_t> round_end_ns;
  /// Per client: samples in one local iteration, min(batch, partition size).
  std::vector<std::size_t> samples_per_iter;
  std::size_t model_dim = 0;
  std::size_t buffer_dim = 0;
  std::vector<Span> spans;  // traced runs only
};

/// Runs an assembled task once. With `traced`, models, optimizers, the
/// training set and the strategy go through the tracing decorators. With
/// `first_round_only`, the run is abandoned once round 1 has ended (the
/// set-up measurement). The observer that stamps round ends is installed
/// either way, so both runs do the same work.
RunOutcome run_task(const bench::TaskBundle& task,
                    const StrategyFactory& make_strategy, bool traced,
                    bool first_round_only, std::int64_t build_begin_ns);

/// Builds the workload's task for `seed` and runs `rounds` rounds of it.
RunOutcome run_workload(const Workload& workload, std::uint64_t seed,
                        std::size_t rounds, bool traced,
                        bool first_round_only = false);

}  // namespace apf::perfbench
