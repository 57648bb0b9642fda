#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "util/error.h"

namespace apf::perfbench {

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

// The calling thread's log in the tracer it last recorded into. Tracer ids
// are never reused, so a stale entry can only miss, never alias.
struct ThreadLogCache {
  std::uint64_t tracer_id = 0;
  void* log = nullptr;
};
thread_local ThreadLogCache t_cache;

/// Times one call into a wrapped layer; records even when the call throws.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanKind kind) : tracer_(tracer) {
    span_.kind = kind;
    span_.begin_ns = now_ns();
  }
  ~ScopedSpan() {
    span_.end_ns = now_ns();
    tracer_.record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  Span& span() { return span_; }

 private:
  Tracer& tracer_;
  Span span_;
};

void record_instant(Tracer& tracer, SpanKind kind) {
  Span span;
  span.kind = kind;
  span.begin_ns = span.end_ns = now_ns();
  tracer.record(span);
}

std::uint64_t sum_bytes(const std::vector<fl::ByteCount>& bytes) {
  std::uint64_t total = 0;
  for (const fl::ByteCount b : bytes) total += b.value();
  return total;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() : id_(g_next_tracer_id.fetch_add(1)) {}

Tracer::ThreadLog& Tracer::log_for_this_thread() {
  if (t_cache.tracer_id == id_) return *static_cast<ThreadLog*>(t_cache.log);
  util::MutexLock lock(mu_);
  auto log = std::make_unique<ThreadLog>();
  log->thread = static_cast<std::uint32_t>(logs_.size());
  log->spans.reserve(1 << 12);
  t_cache = {id_, log.get()};
  logs_.push_back(std::move(log));
  return *logs_.back();
}

void Tracer::record(Span span) {
  ThreadLog& log = log_for_this_thread();
  span.thread = log.thread;
  log.spans.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> all;
  {
    util::MutexLock lock(mu_);
    for (const auto& log : logs_) {
      all.insert(all.end(), log->spans.begin(), log->spans.end());
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.begin_ns < b.begin_ns;
  });
  return all;
}

// ---- nn::Module -----------------------------------------------------------

TracedModule::TracedModule(std::unique_ptr<nn::Module> inner, Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {
  APF_CHECK(inner_ != nullptr);
  training_ = inner_->training();
}

Tensor TracedModule::forward(const Tensor& input) {
  ScopedSpan span(tracer_, evaluating_ ? SpanKind::kEvalForward
                                       : SpanKind::kTrainForward);
  return inner_->forward(input);
}

Tensor TracedModule::backward(const Tensor& grad_output) {
  ScopedSpan span(tracer_, SpanKind::kBackward);
  return inner_->backward(grad_output);
}

void TracedModule::collect_params(const std::string& prefix,
                                  std::vector<nn::ParamRef>& out) {
  inner_->collect_params(prefix, out);
}

void TracedModule::collect_buffers(const std::string& prefix,
                                   std::vector<nn::BufferRef>& out) {
  inner_->collect_buffers(prefix, out);
}

// The runner switches a client model to training mode once at the start of
// its local training; evaluation switches a replica off and back on around
// its batches. Those calls are the only phase markers a Module sees.
void TracedModule::set_training(bool training) {
  if (!training) {
    evaluating_ = true;
    record_instant(tracer_, SpanKind::kEvalBegin);
  } else if (!evaluating_) {
    record_instant(tracer_, SpanKind::kClientBegin);
  }
  training_ = training;
  inner_->set_training(training);
  if (training && evaluating_) {
    evaluating_ = false;
    record_instant(tracer_, SpanKind::kEvalEnd);
  }
}

// ---- optim::Optimizer -----------------------------------------------------

TracedOptimizer::TracedOptimizer(std::unique_ptr<optim::Optimizer> inner,
                                 nn::Module& module, Tracer& tracer)
    : optim::Optimizer(module.parameters(), inner->lr()),
      inner_(std::move(inner)),
      tracer_(tracer) {}

void TracedOptimizer::step() {
  ScopedSpan span(tracer_, SpanKind::kStep);
  inner_->step();
}

void TracedOptimizer::reset_state() { inner_->reset_state(); }

// ---- data::Dataset --------------------------------------------------------

TracedDataset::TracedDataset(const data::Dataset& inner, Tracer& tracer)
    : inner_(inner), tracer_(&tracer) {}

std::size_t TracedDataset::size() const { return inner_.size(); }
std::size_t TracedDataset::num_classes() const { return inner_.num_classes(); }
Shape TracedDataset::sample_shape() const { return inner_.sample_shape(); }
std::size_t TracedDataset::label(std::size_t i) const {
  return inner_.label(i);
}

data::Batch TracedDataset::get_batch(
    std::span<const std::size_t> indices) const {
  ScopedSpan span(*tracer_, SpanKind::kGetBatch);
  return inner_.get_batch(indices);
}

// ---- fl::SyncStrategy / fl::StreamSync -----------------------------------

TracedStrategy::TracedStrategy(std::unique_ptr<fl::SyncStrategy> inner,
                               Tracer& tracer, bool nested)
    : inner_(std::move(inner)),
      inner_stream_(nullptr),
      tracer_(tracer),
      sync_kind_(nested ? SpanKind::kInnerStrategy : SpanKind::kStrategy),
      encode_kind_(nested ? SpanKind::kInnerStrategy : SpanKind::kEncodePush) {
  APF_CHECK(inner_ != nullptr);
  inner_stream_ = inner_->stream_sync();
}

void TracedStrategy::init(std::span<const float> initial_params,
                          std::size_t num_clients) {
  inner_->init(initial_params, num_clients);
}

fl::SyncStrategy::Result TracedStrategy::synchronize(
    fl::RoundId round, std::vector<std::vector<float>>& client_params,
    const std::vector<double>& weights) {
  ScopedSpan span(tracer_, sync_kind_);
  Result result = inner_->synchronize(round, client_params, weights);
  span.span().bytes_up = sum_bytes(result.bytes_up);
  span.span().bytes_down = sum_bytes(result.bytes_down);
  return result;
}

std::span<const float> TracedStrategy::global_params() const {
  return inner_->global_params();
}

const Bitmap* TracedStrategy::frozen_mask() const {
  return inner_->frozen_mask();
}

std::span<const float> TracedStrategy::frozen_anchor() const {
  return inner_->frozen_anchor();
}

fl::StreamSync* TracedStrategy::stream_sync() {
  return inner_stream_ != nullptr ? this : nullptr;
}

std::string TracedStrategy::name() const { return inner_->name(); }

std::vector<std::uint8_t> TracedStrategy::encode_push(
    fl::ClientId client, std::span<const float> params) {
  ScopedSpan span(tracer_, encode_kind_);
  std::vector<std::uint8_t> frame = inner_stream_->encode_push(client, params);
  span.span().bytes_up = frame.size();
  return frame;
}

void TracedStrategy::begin_fold(fl::RoundId round) {
  ScopedSpan span(tracer_, sync_kind_);
  inner_stream_->begin_fold(round);
}

void TracedStrategy::fold_push(fl::ClientId client,
                               std::span<const std::uint8_t> frame,
                               double normalized_weight) {
  ScopedSpan span(tracer_, sync_kind_);
  inner_stream_->fold_push(client, frame, normalized_weight);
}

std::vector<std::uint8_t> TracedStrategy::finish_fold() {
  ScopedSpan span(tracer_, sync_kind_);
  return inner_stream_->finish_fold();
}

void TracedStrategy::apply_pull(std::span<const std::uint8_t> frame,
                                std::vector<float>& params) const {
  ScopedSpan span(tracer_, sync_kind_);
  inner_stream_->apply_pull(frame, params);
}

}  // namespace apf::perfbench
