#include "compress/randk.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/debug.h"
#include "util/rng.h"
#include "util/error.h"
#include "wire/wire.h"

namespace apf::compress {

RandKSync::RandKSync(RandKOptions options) : options_(options) {
  APF_CHECK(options_.fraction > 0.0 && options_.fraction <= 1.0);
}

void RandKSync::init(std::span<const float> initial_params,
                     std::size_t num_clients) {
  SyncStrategyBase::init(initial_params, num_clients);
  residual_.clear();
}

std::vector<std::vector<float>> RandKSync::residuals() const {
  std::vector<std::vector<float>> out(
      num_clients_, std::vector<float>(global_.size(), 0.f));
  residual_.for_each_ordered(
      [&](util::ClientId id, const std::vector<float>& r) {
        out[id.value()] = r;
      });
  return out;
}

fl::SyncStrategy::Result RandKSync::synchronize(fl::RoundId round, std::vector<std::vector<float>>& client_params,
    const std::vector<double>& weights) {
  require_round_inputs(client_params, weights);
  const std::size_t n = client_params.size();
  const std::size_t dim = global_.size();
  APF_CHECK(n == num_clients_);
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(options_.fraction * static_cast<double>(dim))));

  // The coordinate set for this round: identical on every client/server
  // because it is derived from the synchronized round index.
  std::uint64_t mix = options_.seed + 0x9E3779B97F4A7C15ULL * round.value();
  Rng rng(splitmix64(mix));
  std::vector<std::size_t> order(dim);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<bool> selected(dim, false);
  for (std::size_t i = 0; i < k; ++i) selected[order[i]] = true;

  double weight_total = 0.0;
  for (double w : weights) weight_total += w;
  APF_CHECK(weight_total > 0.0);

  const float scale =
      options_.unbiased_scaling
          ? static_cast<float>(static_cast<double>(dim) /
                               static_cast<double>(k))
          : 1.f;

  Result result;
  result.bytes_up.assign(n, fl::ByteCount(0));
  result.bytes_down.assign(n, fl::ByteCount(0));
  result.frames_up.resize(n);

  // The round's coordinates in ascending order — the order both sides
  // derive from the shared seed, and the order values travel in.
  std::vector<std::size_t> coords;
  coords.reserve(k);
  for (std::size_t j = 0; j < dim; ++j) {
    if (selected[j]) coords.push_back(j);
  }

  std::vector<double> acc(dim, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] == 0.0) {
      // Dropped/non-participating client: leave residual and bytes at zero.
      continue;
    }
    const double w = weights[i] / weight_total;
    std::vector<float>& residual = residual_.obtain(fl::ClientId(i));
    if (residual.empty()) residual.assign(dim, 0.f);
    // Push: values only, framed as an "APR1" buffer — the coordinate set is
    // derivable from the seed material that rides along in the header.
    wire::RandkPayload payload;
    payload.dim = static_cast<std::uint32_t>(dim);
    payload.count = static_cast<std::uint32_t>(k);
    payload.seed = mix;
    payload.scale = scale;
    for (std::size_t j = 0; j < dim; ++j) {
      const float pending = client_params[i][j] - global_[j] + residual[j];
      if (selected[j]) {
        payload.values.push_back(pending);
        residual[j] = 0.f;
      } else {
        residual[j] = pending;
      }
    }
    std::vector<std::uint8_t> buf = wire::encode_randk(payload);
    const wire::RandkPayload decoded = wire::decode_randk(buf);
    result.bytes_up[i] = fl::ByteCount(buf.size());
    result.frames_up[i] = std::move(buf);
    APF_DEBUG_ASSERT_MSG(decoded.seed == mix,
                         "rand-k seed drifted through the wire");
    for (std::size_t t = 0; t < coords.size(); ++t) {
      acc[coords[t]] +=
          w * static_cast<double>(decoded.values[t]) * decoded.scale;
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
