#include "compress/gaia.h"

#include <cmath>

#include "util/error.h"
#include "wire/wire.h"

namespace apf::compress {

GaiaSync::GaiaSync(GaiaOptions options) : options_(options) {
  APF_CHECK(options_.significance_threshold > 0.0);
}

void GaiaSync::init(std::span<const float> initial_params,
                    std::size_t num_clients) {
  SyncStrategyBase::init(initial_params, num_clients);
  residual_.clear();
}

std::vector<std::vector<float>> GaiaSync::residuals() const {
  std::vector<std::vector<float>> out(
      num_clients_, std::vector<float>(global_.size(), 0.f));
  residual_.for_each_ordered(
      [&](util::ClientId id, const std::vector<float>& r) {
        out[id.value()] = r;
      });
  return out;
}

fl::SyncStrategy::Result GaiaSync::synchronize(fl::RoundId round, std::vector<std::vector<float>>& client_params,
    const std::vector<double>& weights) {
  require_round_inputs(client_params, weights);
  const std::size_t n = client_params.size();
  const std::size_t dim = global_.size();
  APF_CHECK(n == num_clients_);
  const double threshold =
      options_.decay_threshold
          ? options_.significance_threshold /
                std::sqrt(static_cast<double>(round.value()))
          : options_.significance_threshold;

  double weight_total = 0.0;
  for (double w : weights) weight_total += w;
  APF_CHECK(weight_total > 0.0);

  Result result;
  result.bytes_up.assign(n, fl::ByteCount(0));
  result.bytes_down.assign(n, fl::ByteCount(0));
  result.frames_up.resize(n);

  std::vector<double> acc(dim, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] == 0.0) {
      // Non-participating (or dropped) client: it did no work this round,
      // so its residual must not absorb the stale-parameter gap.
      continue;
    }
    const double w = weights[i] / weight_total;
    std::vector<float>& residual = residual_.obtain(fl::ClientId(i));
    if (residual.empty()) residual.assign(dim, 0.f);
    // Push: the significant set travels as an "APS1" sparse buffer
    // (ascending coordinate order); the server aggregates the decoded
    // components.
    wire::SparsePayload payload;
    payload.dim = static_cast<std::uint32_t>(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      // Pending update = this round's local change plus carried residual.
      const float u = client_params[i][j] - global_[j] + residual[j];
      const double denom =
          std::max(static_cast<double>(std::fabs(global_[j])), options_.eps);
      const bool significant =
          static_cast<double>(std::fabs(u)) / denom >= threshold;
      if (significant) {
        payload.indices.push_back(static_cast<std::uint32_t>(j));
        payload.values.push_back(u);
        residual[j] = 0.f;
      } else {
        residual[j] = u;
      }
    }
    std::vector<std::uint8_t> buf = wire::encode_sparse(payload);
    const wire::SparsePayload decoded = wire::decode_sparse(buf);
    result.bytes_up[i] = fl::ByteCount(buf.size());
    result.frames_up[i] = std::move(buf);
    for (std::size_t t = 0; t < decoded.indices.size(); ++t) {
      acc[decoded.indices[t]] += w * static_cast<double>(decoded.values[t]);
    }
  }
  for (std::size_t j = 0; j < dim; ++j) {
    global_[j] += static_cast<float>(acc[j]);
  }
  // Pull: one dense model buffer, decoded by every client; only this
  // round's participants are charged for it.
  std::vector<std::uint8_t> down = wire::encode_dense(global_);
  const std::vector<float> decoded_down = wire::decode_dense(down);
  for (std::size_t i = 0; i < n; ++i) {
    client_params[i] = decoded_down;
    if (weights[i] > 0.0) {
      result.bytes_down[i] = fl::ByteCount(down.size());
    }
  }
  result.broadcast_frame = std::move(down);
  return result;
}

}  // namespace apf::compress
