#include "fl/runner.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <optional>

#include "data/loader.h"
#include "fl/evaluate.h"
#include "fl/flat_view.h"
#include "nn/lane_store.h"
#include "nn/loss.h"
#include "nn/param_vector.h"
#include "optim/clip.h"
#include "optim/fedprox.h"
#include "transport/buffered.h"
#include "transport/bus.h"
#include "transport/frame.h"
#include "transport/streaming.h"
#include "util/annotations.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "wire/wire.h"

namespace apf::fl {

namespace {
/// Drains a pool when the scope ends. A failure found there is logged: it
/// can only surface while another exception unwinds, because the normal
/// path drains (and rethrows) first.
class DrainOnExit {
 public:
  explicit DrainOnExit(util::ThreadPool& pool) : pool_(pool) {}
  ~DrainOnExit() {
    try {
      pool_.drain();
    } catch (const std::exception& e) {
      APF_WARN("evaluation failed while run() unwound: " << e.what());
    }
  }

  DrainOnExit(const DrainOnExit&) = delete;
  DrainOnExit& operator=(const DrainOnExit&) = delete;

 private:
  util::ThreadPool& pool_;
};
}  // namespace

std::vector<double> SimulationResult::accuracy_series() const {
  std::vector<double> out;
  for (const auto& r : rounds) {
    if (r.test_accuracy >= 0.0) out.push_back(r.test_accuracy);
  }
  return out;
}

std::vector<double> SimulationResult::frozen_series() const {
  std::vector<double> out;
  out.reserve(rounds.size());
  for (const auto& r : rounds) out.push_back(r.frozen_fraction);
  return out;
}

std::vector<double> SimulationResult::cumulative_bytes_series() const {
  std::vector<double> out;
  out.reserve(rounds.size());
  for (const auto& r : rounds) out.push_back(r.cumulative_bytes_per_client);
  return out;
}

FederatedRunner::FederatedRunner(FlConfig config, const data::Dataset& train,
                                 data::Partition partition,
                                 const data::Dataset& test,
                                 ModelFactory model_factory,
                                 OptimizerFactory optimizer_factory,
                                 SyncStrategy& strategy)
    : config_(std::move(config)),
      train_(train),
      partition_(std::move(partition)),
      test_(test),
      model_factory_(std::move(model_factory)),
      optimizer_factory_(std::move(optimizer_factory)),
      strategy_(strategy) {
  APF_CHECK_MSG(config_.num_clients > 0, "FlConfig::num_clients must be > 0");
  APF_CHECK_MSG(partition_.size() == config_.num_clients,
                "partition size " << partition_.size() << " != clients "
                                  << config_.num_clients);
  APF_CHECK(config_.rounds > 0 && config_.local_iters > 0);
  APF_CHECK_MSG(config_.eval_every > 0, "FlConfig::eval_every must be > 0");
  APF_CHECK(config_.participation_fraction > 0.0 &&
            config_.participation_fraction <= 1.0);
  // Reject a broken network model here, with config context, instead of
  // letting the first transfer_seconds() call trip mid-round (issue #7).
  config_.network.validate("FlConfig::network");
  APF_CHECK(config_.grad_clip_norm >= 0.0);
  // A NaN cost would reach the sort over async arrival times, a negative one
  // would give negative simulated seconds, and a NaN or negative mu would
  // silently switch FedProx off.
  APF_CHECK_MSG(std::isfinite(config_.compute_seconds_per_iter) &&
                    config_.compute_seconds_per_iter >= 0.0,
                "FlConfig::compute_seconds_per_iter must be finite and >= 0, "
                "got " << config_.compute_seconds_per_iter);
  APF_CHECK_MSG(std::isfinite(config_.fedprox_mu) && config_.fedprox_mu >= 0.0,
                "FlConfig::fedprox_mu must be finite and >= 0, got "
                    << config_.fedprox_mu);
  APF_CHECK_MSG(config_.compute_multiplier.empty() ||
                    config_.compute_multiplier.size() == config_.num_clients,
                "compute_multiplier size "
                    << config_.compute_multiplier.size() << " != clients "
                    << config_.num_clients);
  for (const double m : config_.compute_multiplier) {
    APF_CHECK_MSG(std::isfinite(m) && m > 0.0,
                  "compute_multiplier entries must be finite and > 0, got "
                      << m);
  }
  APF_CHECK(config_.workload_fraction.empty() ||
            config_.workload_fraction.size() == config_.num_clients);
  for (const double frac : config_.workload_fraction) {
    APF_CHECK_MSG(frac > 0.0 && frac <= 1.0,
                  "workload_fraction entries must be in (0, 1], got "
                      << frac);
  }
  APF_CHECK_MSG(config_.async_goal_k <= config_.num_clients,
                "async_goal_k " << config_.async_goal_k << " > clients "
                                << config_.num_clients);
  APF_CHECK_MSG(std::isfinite(config_.async_timeout_seconds) &&
                    config_.async_timeout_seconds >= 0.0,
                "async_timeout_seconds must be finite and >= 0, got "
                    << config_.async_timeout_seconds);
}

// One round loop serves both aggregation modes. Client set-up, the joiner
// draw, training, evaluation and round bookkeeping are shared; the mode
// selects only how joiners pick up the global state (join) and how their
// pushes become a commit (exchange):
//
//   - kSynchronous: joiners adopt the strategy's global (scattered under
//     partial participation); the exchange is one batch synchronize(), whose
//     traffic is then routed over the bus to price it, and the round barriers
//     on the slowest participant.
//   - kAsyncBuffered (FedBuff-style, docs/TRANSPORT.md, "Asynchronous
//     rounds"): each round is a COMMIT WINDOW, not a barrier. Clients with no
//     push in flight join: pull the global (dense frame), train on the pool,
//     and push the strategy-encoded result; their push "arrives" at window
//     start + download + compute + upload under the network model (compute
//     scaled by the per-client straggler multiplier). The server folds
//     arrivals in ARRIVAL order into a bounded BufferedAggregator with
//     staleness-discounted weights, and commits at the goal-K-th arrival or
//     the straggler timeout, whichever is first. Pushes that miss the commit
//     stay queued: finish_round(kCarryOver) carries them (original round id,
//     bytes charged once at push time) into the next window, where their
//     staleness has grown by one.
//
// Evaluation runs one round behind. At an evaluation round the replicas
// receive the global state and the evaluation is posted to the pool in
// shards (post_evaluation); idle lanes run them during the next round's
// serial work and whenever no training chunk waits, and the next evaluation
// point (or the end of run()) drains the pool and fills the record's
// accuracy. The observer still fires at the end of each round's exchange, so
// the accuracy of the round it sees may be pending.
//
// Everything timing-related is derived from deterministic simulated values,
// and training is one per-client bit-identical kernel, so the full
// SimulationResult is bit-identical for any worker_threads in both modes —
// the golden-digest tests pin this.
SimulationResult FederatedRunner::run() {
  const std::size_t n = config_.num_clients;
  const bool async =
      config_.aggregation_mode == AggregationMode::kAsyncBuffered;
  StreamSync* stream = async ? strategy_.stream_sync() : nullptr;
  APF_CHECK_MSG(!async || stream != nullptr,
                "AggregationMode::kAsyncBuffered requires a StreamSync-"
                "capable strategy; "
                    << strategy_.name() << " is batch-only");

  // Per-client state. All models start bit-identical (factory contract).
  struct Client {
    std::unique_ptr<nn::Module> model;
    std::unique_ptr<optim::Optimizer> optimizer;
    std::unique_ptr<FlatParamView> view;
    std::unique_ptr<data::DataLoader> loader;
    std::size_t iters_per_round = 0;
  };
  std::vector<Client> clients(n);
  Rng seed_rng(config_.seed);
  for (std::size_t i = 0; i < n; ++i) {
    clients[i].model = model_factory_();
    clients[i].optimizer = optimizer_factory_(*clients[i].model);
    clients[i].view = std::make_unique<FlatParamView>(*clients[i].model);
    clients[i].loader = std::make_unique<data::DataLoader>(
        train_, partition_[i], config_.batch_size, seed_rng.split());
    const double frac = config_.workload_fraction.empty()
                            ? 1.0
                            : config_.workload_fraction[i];
    clients[i].iters_per_round = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               frac * static_cast<double>(config_.local_iters))));
  }

  // One persistent pool serves the whole simulation: client training fans
  // out over it every round, evaluation reuses it with model replicas, and
  // it is the compute pool for the run, so strategy codec work and off-lane
  // kernels stay within the same worker_threads lane budget.
  util::ThreadPool pool(config_.worker_threads);
  const util::ScopedComputePool compute_scope(pool);

  // Evaluation replicas, one per pool lane: an evaluation shard runs on the
  // replica of the lane that runs it (post_evaluation), and each replica
  // receives the global params and buffers before its evaluation is posted.
  std::vector<std::unique_ptr<nn::Module>> eval_models;
  std::vector<std::unique_ptr<FlatParamView>> eval_views;
  std::vector<nn::Module*> eval_replicas;
  for (std::size_t r = 0; r < pool.lanes(); ++r) {
    eval_models.push_back(model_factory_());
    eval_views.push_back(std::make_unique<FlatParamView>(*eval_models[r]));
    eval_replicas.push_back(eval_models[r].get());
  }
  std::vector<std::size_t> eval_correct;  // per-shard counts, set by shards
  // Every way out of run() drains the pool before the replicas, the counts
  // and the pool go, so no shard outlives them.
  const DrainOnExit drain_on_exit(pool);

  const std::size_t dim = clients[0].view->dim();
  std::vector<float> init_params;
  clients[0].view->gather(init_params);
  strategy_.init(init_params, n);
  const std::size_t buffer_dim = nn::flatten_buffers(*clients[0].model).size();

  // The runner owns the async global: a commit folds pushes from several
  // origin rounds at once, which the strategy's per-round batch
  // synchronize() contract cannot express.
  std::vector<float> async_global;
  if (async) {
    APF_CHECK_MSG(strategy_.frozen_mask() == nullptr,
                  "AggregationMode::kAsyncBuffered aggregates dense "
                  "full-model pushes; "
                      << strategy_.name() << " freezes coordinates");
    APF_CHECK_MSG(buffer_dim == 0,
                  "AggregationMode::kAsyncBuffered does not aggregate "
                  "BatchNorm buffers yet (model carries "
                      << buffer_dim << " buffer scalars)");
    const auto g = strategy_.global_params();
    async_global.assign(g.begin(), g.end());
  }
  auto global = [&]() -> std::span<const float> {
    return async ? std::span<const float>(async_global)
                 : strategy_.global_params();
  };
  // Every client starts from the (identical) initial global model.
  for (auto& c : clients) c.view->scatter(global());
  if (async) {
    // Push-format probe: the commit decodes pushes as dense frames, so the
    // strategy's encoding must round-trip through the dense codec. A push
    // that fails to encode outside a round (the error-feedback sparsifiers
    // need begin_fold(), and throw before moving any residual) or to decode
    // as dense fails the probe the same way.
    bool dense = false;
    try {
      dense = wire::decode_dense(stream->encode_push(ClientId(0), async_global))
                  .size() == dim;
    } catch (const Error&) {
    }
    APF_CHECK_MSG(dense, strategy_.name()
                             << " push frames are not dense; kAsyncBuffered "
                                "supports dense full-model strategies only");
  }

  SimulationResult result;
  result.rounds.reserve(config_.rounds);
  double cum_bytes = 0.0, cum_seconds = 0.0;
  RunningStat frozen_stat;
  std::vector<std::vector<float>> client_params(n);
  std::vector<float> anchor_copy;
  // Partial participation (FedAvg's C): a deterministic per-round subset.
  Rng participation_rng(config_.seed ^ 0xC11E47ULL);
  const std::size_t participants_per_round = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(config_.participation_fraction *
                         static_cast<double>(n))));
  std::vector<std::size_t> client_order(n);
  for (std::size_t i = 0; i < n; ++i) client_order[i] = i;
  // Global buffer state (BatchNorm running stats) used for evaluation and
  // handed to joining participants.
  std::vector<float> global_buffers =
      buffer_dim > 0 ? nn::flatten_buffers(*clients[0].model)
                     : std::vector<float>{};
  auto compute_seconds_of = [&](std::size_t i) {
    const double mult = config_.compute_multiplier.empty()
                            ? 1.0
                            : config_.compute_multiplier[i];
    return static_cast<double>(clients[i].iters_per_round) *
           config_.compute_seconds_per_iter * mult;
  };

  // All round traffic travels as framed messages over the in-process bus
  // (docs/TRANSPORT.md); per-link byte totals priced once per direction keep
  // the timing bit-identical to the pre-bus accounting.
  transport::Bus bus(config_.network);

  // Async commit state. One pending entry per push in flight; a client
  // trains again only after its push has been folded. Synchronous rounds
  // fold every push in the round that made it, so nothing is ever pending.
  const std::size_t goal_k =
      std::min(n, config_.async_goal_k == 0 ? participants_per_round
                                            : config_.async_goal_k);
  std::optional<transport::BufferedAggregator> buffer;
  if (async) buffer.emplace(dim, goal_k);
  struct Pending {
    double arrival = 0.0;  // absolute simulated time the push lands
    double weight = 0.0;   // partition-size aggregation weight
  };
  std::vector<std::optional<Pending>> pending(n);
  double now = 0.0;

  // The record whose evaluation is posted, finished at the next evaluation
  // point or at the end of the run: once the pool is drained, its shard
  // counts fill the record, the best and final accuracy, and the log line.
  std::optional<std::size_t> evaluating;
  auto finish_evaluation = [&] {
    pool.drain();
    if (!evaluating.has_value()) return;
    RoundRecord& record = result.rounds[*evaluating];
    evaluating.reset();
    std::size_t correct = 0;
    for (const std::size_t c : eval_correct) correct += c;
    record.test_accuracy =
        test_.size() == 0 ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(test_.size());
    result.best_accuracy = std::max(result.best_accuracy, record.test_accuracy);
    result.final_accuracy = record.test_accuracy;
    APF_INFO("round " << record.round << " acc=" << record.test_accuracy
                      << " frozen=" << record.frozen_fraction
                      << " participants=" << record.participants
                      << " loss=" << record.train_loss);
  };

  for (std::size_t round = 1; round <= config_.rounds; ++round) {
    if (lr_schedule_ != nullptr) {
      const double lr = lr_schedule_->lr(round - 1);
      for (auto& c : clients) c.optimizer->set_lr(lr);
    }
    bus.begin_round(RoundId(round));
    // FedProx anchor: the global model this round's joiners start from.
    if (config_.fedprox_mu > 0.0) {
      const auto g = global();
      anchor_copy.assign(g.begin(), g.end());
    }

    // Draw this round's joiners: a deterministic subset of the clients with
    // no push in flight, in client index order.
    std::vector<std::size_t> active;
    if (participants_per_round < n) {
      participation_rng.shuffle(client_order);
      for (const std::size_t idx : client_order) {
        if (active.size() == participants_per_round) break;
        if (!pending[idx].has_value()) active.push_back(idx);
      }
      std::sort(active.begin(), active.end());
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (!pending[i].has_value()) active.push_back(i);
      }
    }

    // ---- Join: joiners pick up the latest global state ----
    std::vector<std::uint8_t> down;  // async: the dense pull frame
    if (!async) {
      // The participant draw clamps to >= 1, so an empty round is a logic
      // bug: it would train nothing and aggregate no participant.
      APF_CHECK_MSG(!active.empty(),
                    "round " << round << " selected zero participants");
      // Joining clients pull the latest global model + buffers (admission
      // control, paper footnote 5); the pull is charged in the exchange.
      if (participants_per_round < n) {
        for (const std::size_t i : active) {
          clients[i].view->scatter(global());
          if (buffer_dim > 0) {
            nn::load_buffers(*clients[i].model, global_buffers);
          }
        }
      }
    } else {
      // Joiners download the current global as one dense frame each.
      down = wire::encode_dense(async_global);
      for (const std::size_t i : active) {
        bus.deliver(ClientId(i), transport::Frame::Kind::kStrategy, down);
      }
      for (const std::size_t i : active) {
        for (transport::Frame& frame : bus.take_pulls(ClientId(i))) {
          clients[i].view->scatter(wire::decode_dense(frame.payload));
        }
      }
    }

    const Bitmap* mask = strategy_.frozen_mask();

    // Local training. Clients are independent between synchronizations, so
    // they can be trained on pool lanes with bit-identical results. Losses
    // accumulate into per-CLIENT slots (never per-lane: which lane trains
    // which client varies run to run) and are summed in client index order
    // below, so train_loss is bit-identical for any worker count.
    //
    // The slots live behind a mutex so Clang Thread Safety Analysis can
    // prove the commit protocol instead of trusting the distinct-index
    // argument: each lane trains into locals and commits its client's slot
    // under the lock exactly once. The lock orders nothing — slots are still
    // distinct per client — it only makes the discipline checkable
    // (tools/check_thread_safety.sh covers this TU).
    double loss_sum = 0.0;
    std::size_t loss_count = 0;
    struct RoundScratch {
      util::Mutex mu;
      std::vector<double> loss APF_GUARDED_BY(mu);
      std::vector<std::size_t> iters APF_GUARDED_BY(mu);
    } scratch;
    {
      util::MutexLock lock(scratch.mu);
      scratch.loss.assign(n, 0.0);
      scratch.iters.assign(n, 0);
    }
    pool.parallel_for(active.size(), [&](std::size_t slot) {
      const std::size_t i = active[slot];
      Client& client = clients[i];
      // This lane runs the client's steps to completion, and posted eval
      // shards hold nothing in the lane store, so the backward state the
      // lane's previous client left there is dead: its regions go to this
      // client's layers, and a run keeps one model's backward state per lane
      // (src/nn/lane_store.h).
      nn::recycle_lane_store();
      client.model->set_training(true);
      double local_loss_sum = 0.0;
      std::size_t local_loss_count = 0;
      for (std::size_t it = 0; it < client.iters_per_round; ++it) {
        const data::Batch batch = client.loader->next_batch();
        client.optimizer->zero_grad();
        const Tensor logits = client.model->forward(batch.inputs);
        const auto loss = nn::softmax_cross_entropy(logits, batch.labels);
        client.model->backward(loss.grad_logits);
        if (config_.fedprox_mu > 0.0) {
          optim::add_proximal_grad(*client.model, anchor_copy,
                                   config_.fedprox_mu);
        }
        if (config_.grad_clip_norm > 0.0) {
          optim::clip_grad_norm(*client.model, config_.grad_clip_norm);
        }
        client.optimizer->step();
        // Emulate fine-grained freezing: frozen scalars are rolled back to
        // their anchor after every local update (paper Alg. 1, line 2).
        if (mask != nullptr) {
          client.view->pin_masked(*mask, strategy_.frozen_anchor());
        }
        local_loss_sum += loss.loss;
        ++local_loss_count;
      }
      util::MutexLock lock(scratch.mu);
      scratch.loss[i] = local_loss_sum;
      scratch.iters[i] = local_loss_count;
    });
    // Ordered reduction: client index order, independent of lane count.
    {
      util::MutexLock lock(scratch.mu);
      for (const std::size_t i : active) {
        loss_sum += scratch.loss[i];
        loss_count += scratch.iters[i];
      }
    }

    // ---- Exchange: pushes become this round's commit ----
    RoundRecord record;
    record.round = RoundId(round);
    double total_bytes_all_clients = 0.0;
    if (!async) {
      double max_compute_seconds = 0.0;
      for (const std::size_t i : active) {
        max_compute_seconds =
            std::max(max_compute_seconds, compute_seconds_of(i));
      }

      // Gather local models and aggregate. Non-participants carry weight 0
      // and their local state is restored after the strategy runs.
      std::vector<bool> participates(n, false);
      for (const std::size_t i : active) participates[i] = true;
      std::vector<double> weights(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        clients[i].view->gather(client_params[i]);
        const bool straggler =
            clients[i].iters_per_round < config_.local_iters;
        const bool dropped =
            straggler && config_.straggler_policy == StragglerPolicy::kDrop;
        weights[i] = (!participates[i] || dropped)
                         ? 0.0
                         : static_cast<double>(partition_[i].size());
      }
      SyncStrategy::Result sync =
          strategy_.synchronize(RoundId(round), client_params, weights);
      APF_CHECK(sync.bytes_up.size() == n && sync.bytes_down.size() == n);
      for (const std::size_t i : active) {
        clients[i].view->scatter(client_params[i]);
      }
      // Non-participants keep their stale local state untouched.
      record.participants = active.size();
      record.frozen_fraction = sync.frozen_fraction;

      // ---- Transport phase: every byte of round traffic rides the bus ----
      // The strategy already folded the pushes (SyncStrategyBase's
      // synchronize() is the batch driver over the StreamSync hooks), so
      // here the runner routes the round's frames: one push and one pull
      // per client, an empty frame meaning nothing was sent. BatchNorm
      // buffers genuinely aggregate on the server side of the bus: aux push
      // frames fold into a streaming mean in ascending client order and the
      // result broadcasts back as one aux frame per participant.
      APF_CHECK_MSG(sync.frames_up.size() == n && sync.frames_down.size() == n,
                    strategy_.name()
                        << " reported bytes without one push and one pull "
                           "frame per client ("
                        << sync.frames_up.size() << " push, "
                        << sync.frames_down.size() << " pull frames for " << n
                        << " clients)");
      for (std::size_t i = 0; i < n; ++i) {
        APF_CHECK_MSG(
            ByteCount(sync.frames_up[i].size()) == sync.bytes_up[i] &&
                ByteCount(sync.frames_down[i].size()) == sync.bytes_down[i],
            strategy_.name() << " client " << i << " frames ("
                             << sync.frames_up[i].size() << " up, "
                             << sync.frames_down[i].size()
                             << " down) != declared (" << sync.bytes_up[i]
                             << ", " << sync.bytes_down[i] << ")");
      }
      for (const std::size_t i : active) {
        if (!sync.frames_up[i].empty()) {
          bus.push(ClientId(i), transport::Frame::Kind::kStrategy,
                   std::move(sync.frames_up[i]));
        }
        if (buffer_dim > 0) {
          bus.push(ClientId(i), transport::Frame::Kind::kAuxiliary,
                   wire::encode_dense(nn::flatten_buffers(*clients[i].model)));
        }
      }

      // Server side: drain the inboxes in deterministic (client, seq) order,
      // folding aux frames into the buffer mean as they stream past. Peak
      // server memory stays O(model): one streaming accumulator, never a
      // per-client staging table.
      ByteCount buffer_bytes;
      {
        transport::StreamingAggregator buf_agg(buffer_dim);
        for (transport::Frame& frame : bus.take_pushes()) {
          if (frame.kind != transport::Frame::Kind::kAuxiliary) continue;
          const std::vector<float> decoded = wire::decode_dense(frame.payload);
          buffer_bytes = frame.size_bytes();
          buf_agg.fold(frame.client, decoded, 1.0);
        }
        if (buffer_dim > 0) {
          APF_CHECK(buf_agg.folded() > 0);
          buf_agg.finish_mean(global_buffers);
        }
      }
      std::vector<std::uint8_t> buffer_down;
      if (buffer_dim > 0) {
        buffer_down = wire::encode_dense(global_buffers);
        // Dense frames are symmetric, so one count covers both directions.
        APF_CHECK(buffer_bytes == ByteCount(buffer_down.size()));
      }

      // Pull direction: each participant's strategy pull frame plus the
      // buffer broadcast, delivered per participant and drained from each
      // mailbox.
      for (const std::size_t i : active) {
        if (!sync.frames_down[i].empty()) {
          bus.deliver(ClientId(i), transport::Frame::Kind::kStrategy,
                      std::move(sync.frames_down[i]));
        }
        if (buffer_dim > 0) {
          bus.deliver(ClientId(i), transport::Frame::Kind::kAuxiliary,
                      buffer_down);
        }
      }
      for (const std::size_t i : active) {
        for (transport::Frame& frame : bus.take_pulls(ClientId(i))) {
          if (frame.kind == transport::Frame::Kind::kAuxiliary) {
            nn::load_buffers(*clients[i].model,
                             wire::decode_dense(frame.payload));
          }
          // Strategy pull frames were already applied by synchronize() (its
          // batch round runs apply_pull itself); the bus leg is the wire.
        }
      }

      // Byte and time accounting: BSP barrier = slowest participant, and the
      // server link carries everyone's traffic. The bus prices each link's
      // byte totals once per direction, reproducing the pre-bus arithmetic
      // bit for bit.
      const transport::RoundStats net = bus.finish_round();
      // Exit the measured integer domain exactly once: everything below is
      // amortization/pricing math, which runs in double as it always has.
      total_bytes_all_clients = net.total_bytes.to_double();
      // Completion-time model: the round ends when the LAST client finishes
      // its own compute followed by its own transfers, max_i(compute_i +
      // comm_i) — NOT max_compute + max_comm, which glued the slowest
      // computer to the slowest communicator even when they were different
      // clients. The shared server link is still a floor: it cannot start
      // before uploads begin nor end before carrying every byte, so
      // max_compute + server_seconds lower-bounds the round as before. When
      // every client's compute is equal (the homogeneous default) both models
      // coincide exactly: max_i(C + comm_i) = C + max_comm.
      double max_completion_seconds = max_compute_seconds;
      for (const auto& [link_client, link_comm] : net.link_comm_seconds) {
        max_completion_seconds = std::max(
            max_completion_seconds,
            compute_seconds_of(static_cast<std::size_t>(link_client.value())) +
                link_comm);
      }
      record.round_seconds =
          std::max(max_completion_seconds,
                   max_compute_seconds + net.server_seconds);
    } else {
      buffer->begin_round(RoundId(round));
      // Push: each joiner's encoded result is queued NOW (bytes charge at
      // push, in this window) but only ARRIVES after its download + compute
      // + upload; until then it is a straggler frame the commit may miss.
      // A joiner's link carries exactly its pull and its push this window,
      // so the bus's price of the open link is its comm time.
      for (const std::size_t i : active) {
        clients[i].view->gather(client_params[i]);
        bus.push(ClientId(i), transport::Frame::Kind::kStrategy,
                 stream->encode_push(ClientId(i), client_params[i]));
        Pending entry;
        entry.arrival = now + compute_seconds_of(i) +
                        bus.link_comm_seconds(ClientId(i));
        entry.weight = static_cast<double>(partition_[i].size());
        pending[i] = entry;
      }

      // Commit decision: fold the first goal-K arrivals if the K-th lands
      // before the timeout, otherwise whatever arrived by the timeout
      // (possibly nothing). Ties and order are exact doubles from the
      // deterministic timing model, so the schedule is reproducible.
      std::vector<std::pair<double, std::size_t>> arrivals;
      for (std::size_t i = 0; i < n; ++i) {
        if (pending[i].has_value()) {
          arrivals.emplace_back(pending[i]->arrival, i);
        }
      }
      std::sort(arrivals.begin(), arrivals.end());
      APF_CHECK_MSG(!arrivals.empty(),
                    "async round " << round << " has no push in flight");
      const std::size_t k = std::min(goal_k, arrivals.size());
      const double deadline =
          config_.async_timeout_seconds > 0.0
              ? now + config_.async_timeout_seconds
              : std::numeric_limits<double>::infinity();
      double commit_time;
      std::size_t fold_count;
      if (arrivals[k - 1].first <= deadline) {
        commit_time = arrivals[k - 1].first;
        fold_count = k;
      } else {
        commit_time = deadline;
        fold_count = 0;
        while (fold_count < arrivals.size() &&
               arrivals[fold_count].first <= deadline) {
          ++fold_count;
        }
      }

      // Fold the committed arrivals in arrival order; everything else stays
      // queued on the bus and carries over.
      for (std::size_t c = 0; c < fold_count; ++c) {
        const std::size_t i = arrivals[c].second;
        std::vector<transport::Frame> frames = bus.take_pushes(ClientId(i));
        APF_CHECK_MSG(frames.size() == 1,
                      "async client " << i << " had " << frames.size()
                                      << " pushes in flight (expected 1)");
        transport::Frame& frame = frames[0];
        buffer->fold(frame.client, frame.round,
                     wire::decode_dense(frame.payload), pending[i]->weight);
        record.staleness.emplace_back(
            frame.client, RoundId(round).value() - frame.round.value());
        pending[i].reset();
      }
      if (buffer->buffered() > 0) {
        buffer->commit(async_global);
      }
      const transport::RoundStats net =
          bus.finish_round(transport::FinishPolicy::kCarryOver);
      total_bytes_all_clients = net.total_bytes.to_double();
      // The window closes at the commit — goal-K arrival or timeout — never
      // at the slowest straggler; the shared server link (which must carry
      // every byte queued this window) still floors it. A commit_time in the
      // past means the arrivals were already waiting: zero additional wait.
      record.round_seconds =
          std::max(std::max(0.0, commit_time - now), net.server_seconds);
      now += record.round_seconds;
      record.participants = fold_count;
      if (observer_) {
        for (std::size_t i = 0; i < n; ++i) {
          clients[i].view->gather(client_params[i]);
        }
      }
    }

    // bytes_per_client amortizes the round's traffic over ALL n clients
    // (non-participants contribute zero traffic but stay in the
    // denominator); bytes_per_participant divides by participants only. See
    // the RoundRecord field docs in runner.h.
    const double mean_bytes =
        total_bytes_all_clients / static_cast<double>(n);
    cum_bytes += mean_bytes;
    cum_seconds += record.round_seconds;
    frozen_stat.add(record.frozen_fraction);

    record.train_loss =
        loss_count ? loss_sum / static_cast<double>(loss_count) : 0.0;
    record.bytes_per_client = mean_bytes;
    record.cumulative_bytes_per_client = cum_bytes;
    record.bytes_per_participant =
        record.participants == 0
            ? 0.0
            : total_bytes_all_clients /
                  static_cast<double>(record.participants);
    record.cumulative_seconds = cum_seconds;
    if (round % config_.eval_every == 0 || round == config_.rounds) {
      // The previous evaluation is finished before its replicas are
      // rewritten; this one runs behind, on lanes the next round's serial
      // work leaves idle.
      finish_evaluation();
      for (auto& view : eval_views) view->scatter(global());
      if (buffer_dim > 0) {
        for (auto& model : eval_models) {
          nn::load_buffers(*model, global_buffers);
        }
      }
      post_evaluation(eval_replicas, test_, pool, eval_correct);
      evaluating = result.rounds.size();
    }
    result.rounds.push_back(record);
    if (observer_) observer_(RoundId(round), global(), client_params);
  }

  finish_evaluation();
  result.total_bytes_per_client = cum_bytes;
  result.total_seconds = cum_seconds;
  result.mean_frozen_fraction = frozen_stat.mean();
  const auto g = global();
  result.final_global_params.assign(g.begin(), g.end());
  APF_CHECK(result.final_global_params.size() == dim);
  return result;
}

}  // namespace apf::fl
