#include "compress/randk.h"

#include <algorithm>
#include <numeric>

#include "util/debug.h"
#include "util/error.h"
#include "util/rng.h"
#include "wire/wire.h"

namespace apf::compress {

RandKSync::RandKSync(RandKOptions options) : options_(options) {
  APF_CHECK(options_.fraction > 0.0 && options_.fraction <= 1.0);
}

void RandKSync::begin_fold(fl::RoundId round) {
  ErrorFeedbackSync::begin_fold(round);
  const std::size_t dim = global_.size();
  const std::size_t k = selection_size(options_.fraction);
  // The coordinate set for this round: identical on every client/server
  // because it is derived from the synchronized round index.
  mix_ = options_.seed + 0x9E3779B97F4A7C15ULL * round.value();
  Rng rng(splitmix64(mix_));
  std::vector<std::size_t> order(dim);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  coords_.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(coords_.begin(), coords_.end());
  scale_ = options_.unbiased_scaling
               ? static_cast<float>(static_cast<double>(dim) /
                                    static_cast<double>(k))
               : 1.f;
}

std::vector<std::uint8_t> RandKSync::encode_push(
    fl::ClientId client, std::span<const float> params) {
  std::vector<float>& residual = armed_residual(client, params);
  const std::size_t dim = global_.size();
  // Values only — the coordinate set is derivable from the seed material
  // that rides along in the header.
  wire::RandkPayload payload;
  payload.dim = static_cast<std::uint32_t>(dim);
  payload.count = static_cast<std::uint32_t>(coords_.size());
  payload.seed = mix_;
  payload.scale = scale_;
  std::size_t next = 0;
  for (std::size_t j = 0; j < dim; ++j) {
    const float pending = params[j] - global_[j] + residual[j];
    if (next < coords_.size() && coords_[next] == j) {
      payload.values.push_back(pending);
      residual[j] = 0.f;
      ++next;
    } else {
      residual[j] = pending;
    }
  }
  return wire::encode_randk(payload);
}

void RandKSync::fold_push(fl::ClientId /*client*/,
                          std::span<const std::uint8_t> frame,
                          double normalized_weight) {
  APF_CHECK_MSG(!acc_.empty(), "fold_push before begin_fold()");
  const wire::RandkPayload decoded = wire::decode_randk(frame);
  APF_DEBUG_ASSERT_MSG(decoded.seed == mix_,
                       "rand-k seed drifted through the wire");
  APF_CHECK(decoded.values.size() == coords_.size());
  for (std::size_t t = 0; t < coords_.size(); ++t) {
    acc_[coords_[t]] +=
        normalized_weight * static_cast<double>(decoded.values[t]) *
        decoded.scale;
  }
}

}  // namespace apf::compress
