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

std::vector<std::uint8_t> TopKSync::encode_push(
    fl::ClientId client, std::span<const float> params) {
  std::vector<float>& residual = armed_residual(client, params);
  const std::size_t dim = global_.size();
  const std::size_t k = selection_size(options_.fraction);
  std::vector<float> pending(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    pending[j] = params[j] - global_[j] + residual[j];
  }
  std::vector<std::size_t> order(dim);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::nth_element(order.begin(),
                   order.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   order.end(), [&](std::size_t a, std::size_t b) {
                     return std::fabs(pending[a]) > std::fabs(pending[b]);
                   });
  // The selected (index, value) set travels in ascending index order.
  std::vector<std::size_t> sent(
      order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(sent.begin(), sent.end());
  wire::SparsePayload payload;
  payload.dim = static_cast<std::uint32_t>(dim);
  for (const std::size_t j : sent) {
    payload.indices.push_back(static_cast<std::uint32_t>(j));
    payload.values.push_back(pending[j]);
  }
  for (std::size_t r = 0; r < dim; ++r) {
    const std::size_t j = order[r];
    residual[j] = r < k ? 0.f : pending[j];
  }
  return wire::encode_sparse(payload);
}

}  // namespace apf::compress
