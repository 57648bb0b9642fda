#include "core/strawmen.h"

#include <algorithm>

#include "core/state_io.h"
#include "transport/streaming.h"
#include "util/error.h"
#include "wire/masked.h"
#include "wire/wire.h"

namespace apf::core {

StrawmanBase::StrawmanBase(StrawmanOptions options) : options_(options) {
  APF_CHECK(options_.stability_threshold > 0.0);
  APF_CHECK(options_.check_every_rounds >= 1);
}

// lint-apf: allow-entry-check(SyncStrategyBase::init validates both arguments)
void StrawmanBase::init(std::span<const float> initial_params,
                        std::size_t num_clients) {
  SyncStrategyBase::init(initial_params, num_clients);
  perturbation_.emplace(initial_params.size(), options_.ema_alpha);
  delta_accum_.assign(initial_params.size(), 0.f);
  excluded_ = Bitmap(initial_params.size(), false);
  rounds_since_check_ = 0;
}

void StrawmanBase::observe_round(std::span<const float> new_global) {
  APF_CHECK_MSG(perturbation_.has_value(), "synchronize() before init()");
  APF_CHECK(new_global.size() == global_.size());
  const std::size_t dim = global_.size();
  for (std::size_t j = 0; j < dim; ++j) {
    delta_accum_[j] += new_global[j] - global_[j];
  }
  if (++rounds_since_check_ >= options_.check_every_rounds) {
    rounds_since_check_ = 0;
    perturbation_->update(delta_accum_, &excluded_);
    for (std::size_t j = 0; j < dim; ++j) {
      if (!excluded_.get(j) &&
          perturbation_->value(j) <= options_.stability_threshold) {
        excluded_.set(j, true);  // irreversible — that is the flaw
      }
    }
    std::fill(delta_accum_.begin(), delta_accum_.end(), 0.f);
  }
}

namespace {

constexpr std::uint32_t kStrawmanStateMagic = 0x41505353;  // "APSS"
constexpr std::uint32_t kStrawmanStateVersion = 1;

}  // namespace

void StrawmanBase::save_state(std::ostream& os) const {
  APF_CHECK_MSG(perturbation_.has_value(), "save_state before init()");
  using namespace state_io;
  const std::size_t dim = global_.size();
  write_pod(os, kStrawmanStateMagic);
  write_pod(os, kStrawmanStateVersion);
  write_pod<std::uint64_t>(os, dim);
  write_pod<std::uint64_t>(os, rounds_since_check_);
  write_vec<float>(os, global_);
  write_vec<float>(os, delta_accum_);
  write_vec<float>(os, perturbation_->raw_signed());
  write_vec<float>(os, perturbation_->raw_abs());
  write_bitmap(os, excluded_);
  APF_CHECK_MSG(os.good(), "strawman state write failed");
}

void StrawmanBase::load_state(std::istream& is) {
  APF_CHECK_MSG(perturbation_.has_value(), "load_state before init()");
  using namespace state_io;
  APF_CHECK_MSG(read_pod<std::uint32_t>(is) == kStrawmanStateMagic,
                "not a strawman state stream");
  APF_CHECK_MSG(read_pod<std::uint32_t>(is) == kStrawmanStateVersion,
                "unsupported strawman state version");
  const std::size_t dim = global_.size();
  APF_CHECK_MSG(read_pod<std::uint64_t>(is) == dim,
                "strawman state dimension mismatch");
  rounds_since_check_ =
      static_cast<std::size_t>(read_pod<std::uint64_t>(is));
  global_ = read_vec<float>(is, dim);
  delta_accum_ = read_vec<float>(is, dim);
  const auto e = read_vec<float>(is, dim);
  const auto a = read_vec<float>(is, dim);
  perturbation_->restore(e, a);
  excluded_ = read_bitmap(is, dim);
}

PartialSync::PartialSync(StrawmanOptions options) : StrawmanBase(options) {}

fl::SyncStrategy::Result PartialSync::synchronize(fl::RoundId /*round*/, std::vector<std::vector<float>>& client_params,
    const std::vector<double>& weights) {
  require_round_inputs(client_params, weights);
  const std::size_t n = client_params.size();
  double weight_total = 0.0;
  for (const double w : weights) weight_total += w;
  Result result;
  result.bytes_up.assign(n, fl::ByteCount(0));
  result.bytes_down.assign(n, fl::ByteCount(0));
  result.frames_up.resize(n);
  // Push: each client uploads only its non-excluded scalars (packed under the
  // mask in force at upload time), framed as a dense wire buffer; the server
  // folds each decoded frame straight into the streaming aggregate instead
  // of staging per-client copies.
  const Bitmap pre_excluded = excluded_;
  transport::StreamingAggregator agg(global_.size() - pre_excluded.count());
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> buf = wire::encode_dense(
        wire::pack_unfrozen(client_params[i], pre_excluded));
    result.bytes_up[i] = fl::ByteCount(buf.size());
    if (weights[i] > 0.0) {
      agg.fold(fl::ClientId(i), wire::decode_dense(buf), weights[i] / weight_total);
    }
    result.frames_up[i] = std::move(buf);
  }
  // Excluded scalars are not synchronized: the server keeps its stale value
  // and every client keeps its own local value.
  std::vector<float> packed_global(agg.dim());
  agg.finish_weighted(packed_global);
  std::vector<float> new_global(global_);
  wire::unpack_unfrozen(packed_global, pre_excluded, new_global);
  observe_round(new_global);
  global_ = std::move(new_global);
  // Pull: one packed buffer under the (possibly grown) post-round mask;
  // every client scatters the decoded values into its live positions.
  std::vector<std::uint8_t> down =
      wire::encode_dense(wire::pack_unfrozen(global_, excluded_));
  const std::vector<float> decoded_down = wire::decode_dense(down);
  for (std::size_t i = 0; i < n; ++i) {
    wire::unpack_unfrozen(decoded_down, excluded_, client_params[i]);
    result.bytes_down[i] = fl::ByteCount(down.size());
  }
  result.broadcast_frame = std::move(down);
  result.frozen_fraction = excluded_.fraction();
  return result;
}

PermanentFreeze::PermanentFreeze(StrawmanOptions options)
    : StrawmanBase(options) {}

fl::SyncStrategy::Result PermanentFreeze::synchronize(fl::RoundId /*round*/, std::vector<std::vector<float>>& client_params,
    const std::vector<double>& weights) {
  require_round_inputs(client_params, weights);
  const std::size_t n = client_params.size();
  double weight_total = 0.0;
  for (const double w : weights) weight_total += w;
  Result result;
  result.bytes_up.assign(n, fl::ByteCount(0));
  result.bytes_down.assign(n, fl::ByteCount(0));
  result.frames_up.resize(n);
  // Push: non-frozen scalars only, packed under the upload-time mask and
  // folded into the streaming aggregate frame by frame.
  const Bitmap pre_excluded = excluded_;
  transport::StreamingAggregator agg(global_.size() - pre_excluded.count());
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> buf = wire::encode_dense(
        wire::pack_unfrozen(client_params[i], pre_excluded));
    result.bytes_up[i] = fl::ByteCount(buf.size());
    if (weights[i] > 0.0) {
      agg.fold(fl::ClientId(i), wire::decode_dense(buf), weights[i] / weight_total);
    }
    result.frames_up[i] = std::move(buf);
  }
  // Frozen scalars stay at their anchor forever.
  std::vector<float> packed_global(agg.dim());
  agg.finish_weighted(packed_global);
  std::vector<float> new_global(global_);
  wire::unpack_unfrozen(packed_global, pre_excluded, new_global);
  observe_round(new_global);
  global_ = std::move(new_global);
  // Pull: live scalars under the post-round mask; each client rebuilds the
  // full vector from the frozen anchor it already holds plus the decoded
  // payload.
  std::vector<std::uint8_t> down =
      wire::encode_dense(wire::pack_unfrozen(global_, excluded_));
  const std::vector<float> decoded_down = wire::decode_dense(down);
  for (std::size_t i = 0; i < n; ++i) {
    client_params[i].assign(global_.begin(), global_.end());
    wire::unpack_unfrozen(decoded_down, excluded_, client_params[i]);
    result.bytes_down[i] = fl::ByteCount(down.size());
  }
  result.broadcast_frame = std::move(down);
  result.frozen_fraction = excluded_.fraction();
  return result;
}

}  // namespace apf::core
