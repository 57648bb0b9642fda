// Turning runs into numbers: per-round span breakdowns of a traced run, and
// the correctness oracle that compares a timed run with its traced twin.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "workloads.h"

namespace apf::perfbench {

/// Where one round's wall time went, from the decorators' spans. A round
/// runs from the previous observer stamp (run() entry for round 1) to its
/// own observer stamp.
struct RoundBreakdown {
  double wall_s = 0.0;
  // Wrapped calls made during local training, summed over lanes.
  double forward_s = 0.0;
  double backward_s = 0.0;
  double step_s = 0.0;
  double get_batch_s = 0.0;
  std::size_t get_batch_calls = 0;
  std::vector<double> forward_us, backward_us, step_us;  // per call
  // A client is busy from the set_training(true) that starts its local
  // training until the next client starts on the same lane, or else until
  // its last wrapped call ends; glue is busy time outside wrapped calls.
  double train_busy_s = 0.0;
  double train_wall_s = 0.0;  // first client start to last client end
  double train_glue_s = 0.0;
  // Outermost strategy: synchronize() and fold hooks; encode_push apart.
  double strategy_s = 0.0;
  double inner_strategy_s = 0.0;
  double encode_push_s = 0.0;
  std::size_t encode_push_calls = 0;
  // Evaluation replicas, each busy between leaving and restoring training
  // mode; wall is first replica start to last replica end.
  double eval_s = 0.0;
  double eval_wall_s = 0.0;
  // Round wall time outside the training and evaluation phases and the
  // outermost strategy spans.
  double runner_self_s = 0.0;
  // Push and pull bytes the outermost strategy reported (synchronize()
  // byte counts, encode_push frame sizes).
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
};

/// Per-round breakdown of a traced run (round r at index r - 1).
std::vector<RoundBreakdown> break_down(const RunOutcome& traced);

/// FNV-1a over the bytes of the final global parameters.
std::uint64_t params_digest(const fl::SimulationResult& result);

/// Whether two records agree bit for bit on every deterministic field.
bool same_record(const fl::RoundRecord& a, const fl::RoundRecord& b);

/// The correctness oracle. Returns the steady rounds of `timed` that fail:
/// a round whose record differs from the traced run's (when `traced` is
/// given), or whose bytes differ from the wire::encode_dense frame sizes on
/// a dense workload. A differing final-params digest or a final accuracy
/// under 0.2 (chance is 0.1) fails the last steady round; a differing first
/// or final round fails the nearest steady round. `reasons` gets one line
/// per failure.
std::set<std::size_t> failed_rounds(const Workload& workload,
                                    const RunOutcome& timed,
                                    const RunOutcome* traced,
                                    std::vector<std::string>& reasons);

}  // namespace apf::perfbench
