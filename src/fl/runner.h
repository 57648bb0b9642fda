// Federated-learning simulator.
//
// Single-process, deterministic reproduction of the paper's testbed: N edge
// clients train local models for Fs iterations per round, synchronize through
// a SyncStrategy (FedAvg, APF, baselines), and the runner accounts bytes and
// simulated wall-clock time under the edge network model. Stragglers and
// FedProx (§7.7) are supported through the config.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/partition.h"
#include "fl/sync_strategy.h"
#include "nn/module.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "transport/network.h"

namespace apf::fl {

/// Straggler handling at the synchronization barrier.
enum class StragglerPolicy {
  kInclude,  // aggregate partial work (FedAvg-naive / FedProx)
  kDrop,     // exclude stragglers from aggregation (FedAvg)
};

/// How client pushes become a new global model each round.
enum class AggregationMode {
  /// BSP rounds: every participant trains, pushes, and the round barriers on
  /// the slowest of them before one batch aggregation (the paper's testbed).
  kSynchronous,
  /// FedBuff-style: pushes land whenever their client finishes (download +
  /// compute + upload under the network model); the server folds arrivals
  /// into a bounded transport::BufferedAggregator with staleness-discounted
  /// weights and commits at goal-K arrivals or a straggler timeout,
  /// whichever is first. Late pushes carry into the next round over the bus
  /// (FinishPolicy::kCarryOver) instead of stalling the commit. Requires a
  /// StreamSync-capable dense strategy (no freezing, no BatchNorm buffers).
  kAsyncBuffered,
};

struct FlConfig {
  std::size_t num_clients = 10;
  std::size_t rounds = 100;
  std::size_t local_iters = 10;  // Fs: local iterations per round
  std::size_t batch_size = 32;
  std::uint64_t seed = 1;

  /// Simulated compute seconds per local iteration (per client).
  double compute_seconds_per_iter = 0.02;

  transport::NetworkModel network;

  /// Evaluate test accuracy every this many rounds.
  std::size_t eval_every = 1;

  /// FedProx proximal coefficient; 0 disables the proximal term.
  double fedprox_mu = 0.0;

  /// Per-client fraction of local_iters actually performed (empty = all 1.0).
  std::vector<double> workload_fraction;

  StragglerPolicy straggler_policy = StragglerPolicy::kInclude;

  /// Fraction of clients participating each round (FedAvg's C). Each round a
  /// subset of round(C*N) clients (at least 1) is drawn; the rest neither
  /// train nor communicate and pick the latest global state up at their next
  /// participation (paper footnote 5: admission control keeps joiners
  /// consistent).
  double participation_fraction = 1.0;

  /// Global L2 gradient-norm clip applied before each optimizer step;
  /// 0 disables clipping.
  double grad_clip_norm = 0.0;

  AggregationMode aggregation_mode = AggregationMode::kSynchronous;

  /// kAsyncBuffered: contributions that commit a round (FedBuff's K, also
  /// the buffer capacity). 0 = the per-round participant count, i.e. the
  /// synchronous fan-in.
  std::size_t async_goal_k = 0;

  /// kAsyncBuffered: simulated seconds after a round opens before the server
  /// commits whatever arrived (possibly nothing) and lets the rest carry
  /// over. 0 = wait for goal-K however long it takes.
  double async_timeout_seconds = 0.0;

  /// Per-client compute-speed multipliers — the straggler distribution
  /// (client i's iteration costs multiplier[i] * compute_seconds_per_iter
  /// simulated seconds). Empty = all 1.0. Honored by both aggregation
  /// modes' timing models; simulated time only, training is unaffected.
  std::vector<double> compute_multiplier;

  /// Execution lanes used to train clients in parallel within a round (one
  /// persistent util::ThreadPool serves the whole simulation: run() installs
  /// it as util::compute_pool(), so strategy work uses the same lanes, and
  /// restores the previous compute pool on return or throw). Clients are
  /// fully independent between synchronizations and every cross-client
  /// reduction is combined in client index order, so the full
  /// SimulationResult is bit-identical for any lane count. 0 = one lane per
  /// hardware core.
  std::size_t worker_threads = 1;
};

/// One round's metrics.
struct RoundRecord {
  RoundId round;
  double test_accuracy = -1.0;  // -1 when not evaluated this round
  double train_loss = 0.0;      // mean local loss across clients

  /// Traffic this round (up + down) amortized over ALL `num_clients`
  /// clients, participants or not. Under partial participation this is the
  /// paper's per-device budget view: a device that sat the round out still
  /// "spends" its share of zero, pulling the mean down. Use
  /// `bytes_per_participant` for the mean over the clients that actually
  /// communicated this round.
  double bytes_per_client = 0.0;
  double cumulative_bytes_per_client = 0.0;

  /// Synchronous rounds: number of clients that trained and communicated
  /// this round. kAsyncBuffered: number of contributions folded into this
  /// round's commit (0 when the timeout fired before any push arrived).
  std::size_t participants = 0;
  /// Traffic this round (up + down) divided by `participants` (0 when it is
  /// 0). Equal to bytes_per_client in synchronous rounds with
  /// participation_fraction == 1.
  double bytes_per_participant = 0.0;

  double frozen_fraction = 0.0;
  /// Simulated time this round took: synchronous rounds end when the last
  /// participant finishes its own compute + comm (and the server link has
  /// drained); async rounds end at the buffer commit (goal-K arrival or
  /// straggler timeout).
  double round_seconds = 0.0;
  double cumulative_seconds = 0.0;

  /// kAsyncBuffered only: (client, staleness) of each contribution folded
  /// into this round's commit, in fold (arrival) order. Staleness is the
  /// number of commit windows since the push was encoded — 0 for a push that
  /// landed in its own round. Empty in synchronous mode.
  std::vector<std::pair<ClientId, std::uint64_t>> staleness;
};

struct SimulationResult {
  std::vector<RoundRecord> rounds;
  double best_accuracy = 0.0;
  double final_accuracy = 0.0;
  double total_bytes_per_client = 0.0;
  double total_seconds = 0.0;
  double mean_frozen_fraction = 0.0;
  std::vector<float> final_global_params;

  /// Accuracy series (only rounds that were evaluated).
  std::vector<double> accuracy_series() const;
  std::vector<double> frozen_series() const;
  std::vector<double> cumulative_bytes_series() const;
};

/// Builds a fresh model; called once per client plus once for evaluation.
/// Every invocation must produce identically initialized parameters (use a
/// fixed-seed Rng inside the factory).
using ModelFactory = std::function<std::unique_ptr<nn::Module>()>;

/// Builds an optimizer bound to the given module's parameters.
using OptimizerFactory =
    std::function<std::unique_ptr<optim::Optimizer>(nn::Module&)>;

/// Optional per-round observer (round id, global params, client params),
/// called at the end of each round's exchange. Evaluation runs one round
/// behind, so the evaluated round's accuracy may still be pending when its
/// observer runs; it is final in the SimulationResult run() returns.
using RoundObserver = std::function<void(
    RoundId round, std::span<const float> global_params,
    const std::vector<std::vector<float>>& client_params)>;

class FederatedRunner {
 public:
  /// `train`/`test` must outlive run(). `partition[i]` selects client i's
  /// training indices; its size must equal config.num_clients.
  FederatedRunner(FlConfig config, const data::Dataset& train,
                  data::Partition partition, const data::Dataset& test,
                  ModelFactory model_factory,
                  OptimizerFactory optimizer_factory,
                  SyncStrategy& strategy);

  /// Optional learning-rate schedule applied at each round (overrides the
  /// optimizer's constant rate).
  void set_lr_schedule(const optim::LrSchedule* schedule) {
    lr_schedule_ = schedule;
  }

  /// Optional observer invoked after every synchronization, before that
  /// round's evaluation (if any) has finished; see RoundObserver.
  void set_observer(RoundObserver observer) { observer_ = std::move(observer); }

  /// Runs the simulation. Not from inside a util::ThreadPool task: the run
  /// drains its own pool's posted evaluation, which a pool task may not do.
  SimulationResult run();

 private:
  FlConfig config_;
  const data::Dataset& train_;
  data::Partition partition_;
  const data::Dataset& test_;
  ModelFactory model_factory_;
  OptimizerFactory optimizer_factory_;
  SyncStrategy& strategy_;
  const optim::LrSchedule* lr_schedule_ = nullptr;
  RoundObserver observer_;
};

}  // namespace apf::fl
