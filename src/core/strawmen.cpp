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
  agg_.reset();
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

std::vector<std::uint8_t> StrawmanBase::encode_push(
    fl::ClientId /*client*/, std::span<const float> params) {
  APF_CHECK_MSG(perturbation_.has_value(), "encode_push before init()");
  APF_CHECK(params.size() == global_.size());
  return wire::encode_dense(wire::pack_unfrozen(params, excluded_));
}

void StrawmanBase::begin_fold(fl::RoundId /*round*/) {
  APF_CHECK_MSG(perturbation_.has_value(), "begin_fold before init()");
  agg_.emplace(global_.size() - excluded_.count());
}

void StrawmanBase::fold_push(fl::ClientId client,
                             std::span<const std::uint8_t> frame,
                             double normalized_weight) {
  APF_CHECK_MSG(agg_.has_value(), "fold_push before begin_fold()");
  agg_->fold(client, wire::decode_dense(frame), normalized_weight);
}

std::vector<std::uint8_t> StrawmanBase::finish_fold() {
  APF_CHECK_MSG(agg_.has_value(), "finish_fold before begin_fold()");
  APF_CHECK_MSG(agg_->folded() > 0, "finish_fold with no folded pushes");
  // Excluded scalars are not synchronized: the server keeps its stale value.
  std::vector<float> packed_global(agg_->dim());
  agg_->finish_weighted(packed_global);
  agg_.reset();
  std::vector<float> new_global(global_);
  wire::unpack_unfrozen(packed_global, excluded_, new_global);
  observe_round(new_global);
  global_ = std::move(new_global);
  return wire::encode_dense(wire::pack_unfrozen(global_, excluded_));
}

PartialSync::PartialSync(StrawmanOptions options) : StrawmanBase(options) {}

void PartialSync::apply_pull(std::span<const std::uint8_t> frame,
                             std::vector<float>& params) const {
  APF_CHECK_MSG(perturbation_.has_value(), "apply_pull before init()");
  wire::unpack_unfrozen(wire::decode_dense(frame), excluded_, params);
}

PermanentFreeze::PermanentFreeze(StrawmanOptions options)
    : StrawmanBase(options) {}

void PermanentFreeze::apply_pull(std::span<const std::uint8_t> frame,
                                 std::vector<float>& params) const {
  APF_CHECK_MSG(perturbation_.has_value(), "apply_pull before init()");
  const std::vector<float> live = wire::decode_dense(frame);
  params.assign(global_.begin(), global_.end());
  wire::unpack_unfrozen(live, excluded_, params);
}

}  // namespace apf::core
