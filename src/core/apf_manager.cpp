#include "core/apf_manager.h"


#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "core/state_io.h"
#include "util/debug.h"
#include "util/error.h"
#include "util/logging.h"
#include "wire/masked.h"
#include "wire/wire.h"

namespace apf::core {

ApfManager::ApfManager(ApfOptions options) : options_(options) {
  APF_CHECK(options_.stability_threshold > 0.0 &&
            options_.stability_threshold <= 1.0);
  APF_CHECK(options_.check_every_rounds >= 1);
  APF_CHECK(options_.decay_trigger > 0.0 && options_.decay_trigger <= 1.0);
  if (options_.random_mode == RandomFreezeMode::kSharp) {
    APF_CHECK(options_.sharp_probability >= 0.0 &&
              options_.sharp_probability <= 1.0);
  }
  if (options_.random_mode == RandomFreezeMode::kPlusPlus) {
    APF_CHECK(options_.pp_prob_coeff >= 0.0 && options_.pp_len_coeff >= 0.0);
  }
}

void ApfManager::set_segments(std::vector<TensorSegment> segments) {
  APF_CHECK_MSG(!segments.empty(), "segment list must not be empty");
  for (const auto& segment : segments) {
    APF_CHECK_MSG(segment.size > 0, "zero-sized tensor segment at offset "
                                        << segment.offset);
  }
  segments_ = std::move(segments);
}

void ApfManager::init(std::span<const float> initial_params,
                      std::size_t num_clients) {
  SyncStrategyBase::init(initial_params, num_clients);
  const std::size_t dim = initial_params.size();
  if (options_.granularity == FreezeGranularity::kTensor) {
    APF_CHECK_MSG(!segments_.empty(),
                  "kTensor granularity requires set_segments()");
    segment_of_.assign(dim, 0);
    std::size_t covered = 0;
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      APF_CHECK(segments_[s].offset == covered);
      for (std::size_t j = 0; j < segments_[s].size; ++j) {
        segment_of_[covered + j] = s;
      }
      covered += segments_[s].size;
    }
    APF_CHECK_MSG(covered == dim, "segments must tile the parameter vector");
    segment_stable_.assign(segments_.size(), 0);
  }
  threshold_ = options_.stability_threshold;
  perturbation_.emplace(dim, options_.ema_alpha);
  controller_.emplace(dim, options_.controller);
  delta_accum_.assign(dim, 0.f);
  window_frozen_ = Bitmap(dim, false);
  random_remaining_.assign(dim, 0);
  effective_mask_ = Bitmap(dim, false);
  rounds_since_check_ = 0;
  agg_.reset();
  pull_mask_ = Bitmap(dim, false);
  fold_frozen_fraction_ = 0.0;
  fold_round_ = 0;
}

std::vector<std::uint8_t> ApfManager::encode_push(
    fl::ClientId /*client*/, std::span<const float> params) {
  APF_CHECK_MSG(perturbation_.has_value(), "encode_push before init()");
  APF_CHECK(params.size() == global_.size());
  return wire::encode_dense(wire::pack_unfrozen(params, effective_mask_));
}

void ApfManager::begin_fold(fl::RoundId round) {
  APF_CHECK_MSG(perturbation_.has_value(), "begin_fold before init()");
  const std::size_t dim = global_.size();
  // The mask active during this round's local training.
  const std::size_t frozen_count = effective_mask_.count();
  APF_DEBUG_ASSERT_MSG(frozen_count <= dim,
                       "mask count " << frozen_count << " exceeds dim "
                                     << dim);
  fold_frozen_fraction_ =
      static_cast<double>(frozen_count) / static_cast<double>(dim);
  fold_round_ = round.value();
  agg_.emplace(dim - frozen_count);
}

void ApfManager::fold_push(fl::ClientId client,
                           std::span<const std::uint8_t> frame,
                           double normalized_weight) {
  APF_CHECK_MSG(agg_.has_value(), "fold_push before begin_fold()");
  const std::vector<float> payload = wire::decode_dense(frame);
  APF_DEBUG_ASSERT_MSG(payload.size() == agg_->dim(),
                       "client " << client << " payload " << payload.size()
                                 << " != unfrozen count " << agg_->dim());
  APF_DEBUG_CHECK_FINITE(std::span<const float>(payload),
                         "ApfManager::fold_push client payload");
  agg_->fold(client, payload, normalized_weight);
}

std::vector<std::uint8_t> ApfManager::finish_fold() {
  APF_CHECK_MSG(agg_.has_value(), "finish_fold before begin_fold()");
  APF_CHECK_MSG(agg_->folded() > 0, "finish_fold with no folded pushes");
  const std::size_t dim = global_.size();
  APF_DEBUG_CHECK_FINITE(agg_->accumulated(),
                         "ApfManager::finish_fold aggregated payload");
  std::vector<float> merged_payload(agg_->dim());
  agg_->finish_weighted(merged_payload);
  agg_.reset();
  std::vector<float> new_global = global_;
  wire::unpack_unfrozen(merged_payload, effective_mask_, new_global);
  APF_DEBUG_CHECK_FINITE(std::span<const float>(new_global),
                         "ApfManager::finish_fold merged global model");

  // Track the accumulated global update for the next stability check, and
  // remember which scalars were frozen at any point during the window.
  for (std::size_t j = 0; j < dim; ++j) {
    delta_accum_[j] += new_global[j] - global_[j];
  }
  window_frozen_.or_with(effective_mask_);
  global_ = std::move(new_global);

  // Pull: the §9 server-side variant frames the mask with the values (APM1);
  // the default ships only the packed values — client-computed masks are
  // free. The frame is encoded under the mask the round ran with, and that
  // mask is stored for apply_pull, BEFORE the stability check / random
  // freezing evolve it for the next round.
  pull_mask_ = effective_mask_;
  std::vector<std::uint8_t> down_buf =
      options_.server_side_mask
          ? wire::encode_masked_update(global_, effective_mask_)
          : wire::encode_dense(wire::pack_unfrozen(global_, effective_mask_));

  // Stability check every Fc rounds.
  if (++rounds_since_check_ >= options_.check_every_rounds) {
    rounds_since_check_ = 0;
    run_stability_check();
  }

  // Random freezing (APF# / APF++) for the next round.
  advance_random_freezing(fold_round_);
  rebuild_effective_mask();
  return down_buf;
}

void ApfManager::apply_pull(std::span<const std::uint8_t> frame,
                            std::vector<float>& params) const {
  APF_CHECK_MSG(perturbation_.has_value(), "apply_pull before init()");
  // Every client rebuilds its full vector from the frozen anchor it already
  // holds plus the decoded payload.
  std::vector<float> down_payload;
  if (options_.server_side_mask) {
    wire::MaskedUpdate update = wire::decode_masked_update(frame);
    down_payload = std::move(update.payload);
  } else {
    down_payload = wire::decode_dense(frame);
  }
  params.assign(global_.begin(), global_.end());
  wire::unpack_unfrozen(down_payload, pull_mask_, params);
}

void ApfManager::run_stability_check() {
  // Fold the accumulated update into the EMA statistics for every scalar
  // that trained through the whole window; frozen scalars keep their stats.
  perturbation_->update(delta_accum_, &window_frozen_);

  if (options_.granularity == FreezeGranularity::kTensor) {
    // All-or-nothing verdict per tensor: the tensor freezes only when most
    // of its evaluable scalars individually look stable.
    std::vector<std::size_t> stable(segments_.size(), 0);
    std::vector<std::size_t> count(segments_.size(), 0);
    for (std::size_t j = 0; j < window_frozen_.size(); ++j) {
      if (window_frozen_.get(j)) continue;
      if (perturbation_->value(j) <= threshold_) ++stable[segment_of_[j]];
      ++count[segment_of_[j]];
    }
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      segment_stable_[s] =
          count[s] > 0 &&
          static_cast<double>(stable[s]) >=
              options_.tensor_vote_fraction * static_cast<double>(count[s]);
    }
  }

  controller_->check(
      /*evaluable=*/[&](std::size_t j) { return !window_frozen_.get(j); },
      /*stable=*/[&](std::size_t j) {
        if (options_.granularity == FreezeGranularity::kTensor) {
          return segment_stable_[segment_of_[j]] != 0;
        }
        return perturbation_->value(j) <= threshold_;
      });

  // Runtime threshold decay (§6.1): when most scalars are frozen, tighten.
  if (options_.threshold_decay &&
      controller_->frozen_fraction() >= options_.decay_trigger) {
    threshold_ *= 0.5;
    APF_DEBUG("APF threshold decayed to " << threshold_);
  }

  std::fill(delta_accum_.begin(), delta_accum_.end(), 0.f);
  window_frozen_.fill(false);
}

void ApfManager::advance_random_freezing(std::size_t round) {
  if (options_.random_mode == RandomFreezeMode::kNone) return;
  const std::size_t dim = random_remaining_.size();
  for (auto& r : random_remaining_) {
    if (r > 0) --r;
  }
  // Deterministic per-round stream: every client computes the same draws
  // from the synchronized round index, so no mask traffic is needed.
  std::uint64_t mix = options_.seed + 0x9E3779B97F4A7C15ULL * (round + 1);
  Rng rng(splitmix64(mix));
  double probability = 0.0;
  std::uint64_t max_extra_len = 0;
  if (options_.random_mode == RandomFreezeMode::kSharp) {
    probability = options_.sharp_probability;
  } else {
    probability = std::min(1.0, options_.pp_prob_coeff *
                                    static_cast<double>(round));
    max_extra_len = static_cast<std::uint64_t>(
        options_.pp_len_coeff * static_cast<double>(round));
  }
  for (std::size_t j = 0; j < dim; ++j) {
    if (controller_->frozen(j) || random_remaining_[j] > 0) continue;
    if (rng.bernoulli(probability)) {
      random_remaining_[j] = static_cast<std::uint32_t>(
          1 + (max_extra_len > 0 ? rng.uniform_int(max_extra_len + 1) : 0));
    }
  }
}

void ApfManager::rebuild_effective_mask() {
  const std::size_t dim = effective_mask_.size();
  if (options_.random_mode == RandomFreezeMode::kNone) {
    effective_mask_ = controller_->mask();
    return;
  }
  for (std::size_t j = 0; j < dim; ++j) {
    effective_mask_.set(j, controller_->frozen(j) || random_remaining_[j] > 0);
  }
}

namespace {

constexpr std::uint32_t kStateMagic = 0x41504653;  // "APFS"
constexpr std::uint32_t kStateVersion = 1;

}  // namespace

void ApfManager::save_state(std::ostream& os) const {
  using namespace state_io;
  APF_CHECK_MSG(perturbation_.has_value(), "save_state before init()");
  const std::size_t dim = global_.size();
  write_pod(os, kStateMagic);
  write_pod(os, kStateVersion);
  write_pod<std::uint64_t>(os, dim);
  write_pod<double>(os, threshold_);
  write_pod<std::uint64_t>(os, rounds_since_check_);
  write_vec<float>(os, global_);
  write_vec<float>(os, delta_accum_);
  write_vec<float>(os, perturbation_->raw_signed());
  write_vec<float>(os, perturbation_->raw_abs());
  write_vec<std::uint32_t>(os, controller_->raw_periods());
  write_vec<std::uint32_t>(os, controller_->raw_remaining());
  write_vec<std::uint32_t>(os, random_remaining_);
  write_bitmap(os, window_frozen_);
  write_bitmap(os, effective_mask_);
  APF_CHECK_MSG(os.good(), "APF state write failed");
}

void ApfManager::load_state(std::istream& is) {
  using namespace state_io;
  APF_CHECK_MSG(perturbation_.has_value(), "load_state before init()");
  APF_CHECK_MSG(read_pod<std::uint32_t>(is) == kStateMagic,
                "not an APF state stream");
  APF_CHECK_MSG(read_pod<std::uint32_t>(is) == kStateVersion,
                "unsupported APF state version");
  const std::size_t dim = global_.size();
  APF_CHECK_MSG(read_pod<std::uint64_t>(is) == dim,
                "APF state dimension mismatch");
  threshold_ = read_pod<double>(is);
  rounds_since_check_ =
      static_cast<std::size_t>(read_pod<std::uint64_t>(is));
  global_ = read_vec<float>(is, dim);
  delta_accum_ = read_vec<float>(is, dim);
  const auto e = read_vec<float>(is, dim);
  const auto a = read_vec<float>(is, dim);
  perturbation_->restore(e, a);
  const auto periods = read_vec<std::uint32_t>(is, dim);
  const auto remaining = read_vec<std::uint32_t>(is, dim);
  controller_->restore(periods, remaining);
  random_remaining_ = read_vec<std::uint32_t>(is, dim);
  window_frozen_ = read_bitmap(is, dim);
  effective_mask_ = read_bitmap(is, dim);
}

std::string ApfManager::name() const {
  switch (options_.random_mode) {
    case RandomFreezeMode::kNone: return "APF";
    case RandomFreezeMode::kSharp: return "APF#";
    case RandomFreezeMode::kPlusPlus: return "APF++";
  }
  return "APF";
}

}  // namespace apf::core
