#include "compress/gaia.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "wire/wire.h"

namespace apf::compress {

GaiaSync::GaiaSync(GaiaOptions options) : options_(options) {
  APF_CHECK(options_.significance_threshold > 0.0);
}

void GaiaSync::begin_fold(fl::RoundId round) {
  ErrorFeedbackSync::begin_fold(round);
  threshold_ = options_.decay_threshold
                   ? options_.significance_threshold /
                         std::sqrt(static_cast<double>(round.value()))
                   : options_.significance_threshold;
}

std::vector<std::uint8_t> GaiaSync::encode_push(
    fl::ClientId client, std::span<const float> params) {
  std::vector<float>& residual = armed_residual(client, params);
  const std::size_t dim = global_.size();
  // The significant set travels in ascending coordinate order.
  wire::SparsePayload payload;
  payload.dim = static_cast<std::uint32_t>(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    // Pending update = this round's local change plus carried residual.
    const float u = params[j] - global_[j] + residual[j];
    const double denom =
        std::max(static_cast<double>(std::fabs(global_[j])), options_.eps);
    if (static_cast<double>(std::fabs(u)) / denom >= threshold_) {
      payload.indices.push_back(static_cast<std::uint32_t>(j));
      payload.values.push_back(u);
      residual[j] = 0.f;
    } else {
      residual[j] = u;
    }
  }
  return wire::encode_sparse(payload);
}

}  // namespace apf::compress
