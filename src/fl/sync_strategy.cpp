#include "fl/sync_strategy.h"

#include <cmath>

#include "util/error.h"
#include "util/thread_pool.h"
#include "wire/wire.h"

namespace apf::fl {

void SyncStrategyBase::init(std::span<const float> initial_params,
                            std::size_t num_clients) {
  APF_CHECK(!initial_params.empty());
  APF_CHECK(num_clients > 0);
  global_.assign(initial_params.begin(), initial_params.end());
  num_clients_ = num_clients;
}

void require_round_inputs(std::span<const float> global,
                          std::size_t num_clients,
                          const std::vector<std::vector<float>>& client_params,
                          const std::vector<double>& weights) {
  APF_CHECK_MSG(!global.empty(), "synchronize() before init()");
  APF_CHECK(!client_params.empty());
  APF_CHECK(client_params.size() == weights.size());
  APF_CHECK_MSG(client_params.size() == num_clients,
                client_params.size() << " clients in a round of a "
                                     << num_clients << "-client strategy");
  double total = 0.0;
  for (double w : weights) {
    APF_CHECK_MSG(std::isfinite(w), "aggregation weight is not finite");
    APF_CHECK(w >= 0.0);
    total += w;
  }
  APF_CHECK_MSG(total > 0.0, "all aggregation weights are zero");
  const std::size_t dim = global.size();
  for (std::size_t i = 0; i < client_params.size(); ++i) {
    APF_CHECK_MSG(client_params[i].size() == dim,
                  "client " << i << " update size " << client_params[i].size()
                            << " != model dim " << dim);
    if (weights[i] == 0.0) continue;
    for (std::size_t j = 0; j < dim; ++j) {
      APF_CHECK_MSG(std::isfinite(client_params[i][j]),
                    "client " << i << " update is not finite at index " << j);
    }
  }
}

SyncStrategy::Result SyncStrategyBase::synchronize(
    RoundId round, std::vector<std::vector<float>>& client_params,
    const std::vector<double>& weights) {
  // Everything is validated before any state moves (rejection stays
  // atomic); after this, none of the hooks below can throw.
  require_round_inputs(global_, num_clients_, client_params, weights);
  const std::size_t n = client_params.size();
  double weight_total = 0.0;
  for (const double w : weights) weight_total += w;
  const bool all_exchange = zero_weight_clients_exchange();
  auto exchanges = [&](std::size_t i) {
    return all_exchange || weights[i] > 0.0;
  };

  Result result;
  result.frames_up.resize(n);
  result.frames_down.resize(n);
  begin_fold(round);
  // Encodes read only the round's armed state and the client's own slots,
  // so they run on pool lanes; the folds then run serially in ascending
  // client id, which fixes the floating-point summation order.
  util::ThreadPool& pool = util::compute_pool();
  pool.parallel_for(n, [&](std::size_t i) {
    if (exchanges(i)) {
      result.frames_up[i] = encode_push(ClientId(i), client_params[i]);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] > 0.0) {
      fold_push(ClientId(i), result.frames_up[i], weights[i] / weight_total);
    }
  }
  const std::vector<std::uint8_t> pull = finish_fold();
  result.frozen_fraction = round_frozen_fraction();
  pool.parallel_for(n, [&](std::size_t i) {
    apply_pull(pull, client_params[i]);
  });
  result.bytes_up.resize(n);
  result.bytes_down.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (exchanges(i)) result.frames_down[i] = pull;
    result.bytes_up[i] = ByteCount(result.frames_up[i].size());
    result.bytes_down[i] = ByteCount(result.frames_down[i].size());
  }
  return result;
}

std::vector<std::uint8_t> FullSync::encode_push(ClientId /*client*/,
                                                std::span<const float> params) {
  APF_CHECK_MSG(!global_.empty(), "encode_push before init()");
  APF_CHECK(params.size() == global_.size());
  return wire::encode_dense(params);
}

void FullSync::begin_fold(RoundId /*round*/) {
  APF_CHECK_MSG(!global_.empty(), "begin_fold before init()");
  agg_.emplace(global_.size());
}

void FullSync::fold_push(ClientId client,
                         std::span<const std::uint8_t> frame,
                         double normalized_weight) {
  APF_CHECK_MSG(agg_.has_value(), "fold_push before begin_fold()");
  const std::vector<float> values = wire::decode_dense(frame);
  agg_->fold(client, values, normalized_weight);
}

std::vector<std::uint8_t> FullSync::finish_fold() {
  APF_CHECK_MSG(agg_.has_value(), "finish_fold before begin_fold()");
  APF_CHECK_MSG(agg_->folded() > 0, "finish_fold with no folded pushes");
  std::vector<float> new_global(global_.size());
  agg_->finish_weighted(new_global);
  global_ = std::move(new_global);
  agg_.reset();
  return wire::encode_dense(global_);
}

void FullSync::apply_pull(std::span<const std::uint8_t> frame,
                          std::vector<float>& params) const {
  // Decode to a local first: a wrong-dimension frame must throw without
  // clobbering the caller's parameters (rejection is atomic).
  std::vector<float> decoded = wire::decode_dense(frame);
  APF_CHECK(decoded.size() == global_.size());
  params = std::move(decoded);
}

}  // namespace apf::fl
