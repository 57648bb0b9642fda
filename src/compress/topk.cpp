#include "compress/topk.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.h"
#include "wire/wire.h"

namespace apf::compress {

TopKSync::TopKSync(TopKOptions options) : options_(options) {
  APF_CHECK(options_.fraction > 0.0 && options_.fraction <= 1.0);
}

void TopKSync::init(std::span<const float> initial_params,
                    std::size_t num_clients) {
  SyncStrategyBase::init(initial_params, num_clients);
  residual_.clear();
}

std::vector<std::vector<float>> TopKSync::residuals() const {
  std::vector<std::vector<float>> out(
      num_clients_, std::vector<float>(global_.size(), 0.f));
  residual_.for_each_ordered(
      [&](util::ClientId id, const std::vector<float>& r) {
        out[id.value()] = r;
      });
  return out;
}

fl::SyncStrategy::Result TopKSync::synchronize(fl::RoundId /*round*/, std::vector<std::vector<float>>& client_params,
    const std::vector<double>& weights) {
  require_round_inputs(client_params, weights);
  const std::size_t n = client_params.size();
  const std::size_t dim = global_.size();
  APF_CHECK(n == num_clients_);
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(options_.fraction * static_cast<double>(dim))));

  double weight_total = 0.0;
  for (double w : weights) weight_total += w;
  APF_CHECK(weight_total > 0.0);

  Result result;
  result.bytes_up.assign(n, fl::ByteCount(0));
  result.bytes_down.assign(n, fl::ByteCount(0));
  result.frames_up.resize(n);

  std::vector<double> acc(dim, 0.0);
  std::vector<float> pending(dim);
  std::vector<std::size_t> order(dim);
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] == 0.0) {
      // Dropped/non-participating client: no work this round, so neither
      // its residual nor the byte counters should move.
      continue;
    }
    std::vector<float>& residual = residual_.obtain(fl::ClientId(i));
    if (residual.empty()) residual.assign(dim, 0.f);
    for (std::size_t j = 0; j < dim; ++j) {
      pending[j] = client_params[i][j] - global_[j] + residual[j];
    }
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     order.end(), [&](std::size_t a, std::size_t b) {
                       return std::fabs(pending[a]) > std::fabs(pending[b]);
                     });
    // Push: the selected (index, value) set travels as an "APS1" sparse
    // buffer; the server aggregates the decoded components.
    wire::SparsePayload payload;
    payload.dim = static_cast<std::uint32_t>(dim);
    std::vector<std::size_t> sent(order.begin(),
                                  order.begin() +
                                      static_cast<std::ptrdiff_t>(k));
    std::sort(sent.begin(), sent.end());
    for (const std::size_t j : sent) {
      payload.indices.push_back(static_cast<std::uint32_t>(j));
      payload.values.push_back(pending[j]);
    }
    std::vector<std::uint8_t> buf = wire::encode_sparse(payload);
    const wire::SparsePayload decoded = wire::decode_sparse(buf);
    result.bytes_up[i] = fl::ByteCount(buf.size());
    result.frames_up[i] = std::move(buf);
    const double w = weights[i] / weight_total;
    for (std::size_t t = 0; t < decoded.indices.size(); ++t) {
      acc[decoded.indices[t]] += w * static_cast<double>(decoded.values[t]);
    }
    for (std::size_t r = 0; r < dim; ++r) {
      const std::size_t j = order[r];
      residual[j] = r < k ? 0.f : pending[j];
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
