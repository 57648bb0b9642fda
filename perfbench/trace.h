// Span tracing for the benchmark, taken from outside the simulator.
//
// Every span comes from a thin forwarding decorator around one of the public
// virtual interfaces FederatedRunner calls (nn::Module, optim::Optimizer,
// data::Dataset, fl::SyncStrategy / fl::StreamSync). No simulator source is
// instrumented: the traced run builds its models, optimizers, training set
// and strategy through the decorators below, and an untraced run builds the
// same objects bare. The decorators only forward, so the SimulationResult of
// both runs is bit-identical (the self-test and every benchmark run check
// this).
//
// Spans are appended to per-thread logs in memory (no lock on the hot path)
// and merged after the run, when the runner's lanes have been joined.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "fl/sync_strategy.h"
#include "nn/module.h"
#include "optim/optimizer.h"
#include "util/annotations.h"

namespace apf::perfbench {

enum class SpanKind : std::uint8_t {
  kTrainForward,   // Module::forward on a client model in training mode
  kEvalForward,    // Module::forward on an evaluation replica
  kBackward,       // Module::backward
  kStep,           // Optimizer::step
  kGetBatch,       // Dataset::get_batch on the training set
  kClientBegin,    // instant: a client model entered training mode
  kEvalBegin,      // instant: an evaluation replica left training mode
  kEvalEnd,        // instant: an evaluation replica restored training mode
  kStrategy,       // outermost strategy: synchronize() and the fold hooks
  kEncodePush,     // outermost strategy: StreamSync::encode_push
  kInnerStrategy,  // a strategy wrapped by another (APF under fp16)
};

struct Span {
  SpanKind kind = SpanKind::kTrainForward;
  std::uint32_t thread = 0;  // per-tracer thread index, stable for a run
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;   // == begin_ns for instants
  std::uint64_t bytes_up = 0;    // strategy spans: push bytes reported
  std::uint64_t bytes_down = 0;  // strategy spans: pull bytes reported
};

/// steady_clock in nanoseconds.
std::int64_t now_ns();

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Appends `span` to the calling thread's log, stamping its thread index.
  void record(Span span);

  /// Every span recorded so far, ordered by begin time. Call only while no
  /// thread is recording (after run() returned).
  std::vector<Span> spans() const;

 private:
  struct ThreadLog {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  ThreadLog& log_for_this_thread();

  const std::uint64_t id_;
  mutable util::Mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_ APF_GUARDED_BY(mu_);
};

/// nn::Module decorator: times forward/backward and marks, through
/// set_training, where each client's local training and each evaluation
/// replica's pass begin and end. Parameters and buffers are the wrapped
/// module's own, so flat views, optimizers and buffer folds see the same
/// tensors.
class TracedModule final : public nn::Module {
 public:
  TracedModule(std::unique_ptr<nn::Module> inner, Tracer& tracer);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<nn::ParamRef>& out) override;
  void collect_buffers(const std::string& prefix,
                       std::vector<nn::BufferRef>& out) override;
  void set_training(bool training) override;

 private:
  std::unique_ptr<nn::Module> inner_;
  Tracer& tracer_;
  bool evaluating_ = false;
};

/// optim::Optimizer decorator timing step(). Optimizer::set_lr is not
/// virtual, so a learning-rate schedule would change this decorator's rate
/// and never the wrapped optimizer's: traced workloads keep a constant rate.
class TracedOptimizer final : public optim::Optimizer {
 public:
  TracedOptimizer(std::unique_ptr<optim::Optimizer> inner,
                  nn::Module& module, Tracer& tracer);

  void step() override;
  void reset_state() override;

 private:
  std::unique_ptr<optim::Optimizer> inner_;
  Tracer& tracer_;
};

/// data::Dataset decorator timing get_batch() on the training set.
class TracedDataset final : public data::Dataset {
 public:
  TracedDataset(const data::Dataset& inner, Tracer& tracer);

  std::size_t size() const override;
  std::size_t num_classes() const override;
  Shape sample_shape() const override;
  std::size_t label(std::size_t i) const override;
  data::Batch get_batch(std::span<const std::size_t> indices) const override;

 private:
  const data::Dataset& inner_;
  Tracer* tracer_;
};

/// fl::SyncStrategy decorator. The outermost strategy records kStrategy
/// spans for synchronize() and the fold hooks and kEncodePush spans for
/// encode_push(); a strategy wrapped inside another (`nested`) records
/// kInnerStrategy for all of them, so the wrapper's own time is the outer
/// span minus the inner one. Exposes StreamSync exactly when the wrapped
/// strategy does.
class TracedStrategy final : public fl::SyncStrategy, public fl::StreamSync {
 public:
  TracedStrategy(std::unique_ptr<fl::SyncStrategy> inner, Tracer& tracer,
                 bool nested);

  void init(std::span<const float> initial_params,
            std::size_t num_clients) override;
  Result synchronize(fl::RoundId round,
                     std::vector<std::vector<float>>& client_params,
                     const std::vector<double>& weights) override;
  std::span<const float> global_params() const override;
  const Bitmap* frozen_mask() const override;
  std::span<const float> frozen_anchor() const override;
  fl::StreamSync* stream_sync() override;
  std::string name() const override;

  std::vector<std::uint8_t> encode_push(
      fl::ClientId client, std::span<const float> params) override;
  void begin_fold(fl::RoundId round) override;
  void fold_push(fl::ClientId client, std::span<const std::uint8_t> frame,
                 double normalized_weight) override;
  std::vector<std::uint8_t> finish_fold() override;
  void apply_pull(std::span<const std::uint8_t> frame,
                  std::vector<float>& params) const override;

 private:
  std::unique_ptr<fl::SyncStrategy> inner_;
  fl::StreamSync* inner_stream_;
  Tracer& tracer_;
  SpanKind sync_kind_;
  SpanKind encode_kind_;
};

}  // namespace apf::perfbench
