#include "compress/cmfl.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "wire/wire.h"

namespace apf::compress {

CmflSync::CmflSync(CmflOptions options) : options_(options) {
  APF_CHECK(options_.relevance_threshold > 0.0 &&
            options_.relevance_threshold <= 1.0);
  APF_CHECK(options_.threshold_decay > 0.0 && options_.threshold_decay <= 1.0);
}

void CmflSync::init(std::span<const float> initial_params,
                    std::size_t num_clients) {
  APF_CHECK(!initial_params.empty());
  APF_CHECK(num_clients > 0);
  global_.assign(initial_params.begin(), initial_params.end());
  num_clients_ = num_clients;
  prev_global_update_.assign(initial_params.size(), 0.f);
}

fl::SyncStrategy::Result CmflSync::synchronize(fl::RoundId round, std::vector<std::vector<float>>& client_params,
    const std::vector<double>& weights) {
  fl::require_round_inputs(global_, num_clients_, client_params, weights);
  const std::size_t n = client_params.size();
  const std::size_t dim = global_.size();
  const double threshold =
      options_.relevance_threshold *
      std::pow(options_.threshold_decay, static_cast<double>(round.value() - 1));

  Result result;
  result.bytes_up.assign(n, fl::ByteCount(0));
  result.bytes_down.assign(n, fl::ByteCount(0));
  result.frames_up.resize(n);
  result.frames_down.resize(n);

  // Relevance check: sign agreement with the previous global update. In the
  // first round there is no reference update, so every upload is relevant.
  std::vector<bool> upload(n, false);
  std::size_t uploads = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] == 0.0) continue;
    ++considered_;
    if (round == fl::RoundId(1)) {
      upload[i] = true;
    } else {
      std::size_t agree = 0;
      for (std::size_t j = 0; j < dim; ++j) {
        const float u = client_params[i][j] - global_[j];
        const bool same_sign =
            (u >= 0.f) == (prev_global_update_[j] >= 0.f);
        if (same_sign) ++agree;
      }
      upload[i] = static_cast<double>(agree) / static_cast<double>(dim) >=
                  threshold;
    }
    if (upload[i]) {
      ++uploads;
      ++accepted_;
    }
  }
  // If every update was filtered, fall back to accepting all non-dropped
  // clients so the round still makes progress (matches CMFL's guarantee that
  // training never stalls).
  if (uploads == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (weights[i] > 0.0) upload[i] = true;
    }
  }

  double weight_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (upload[i]) weight_total += weights[i];
  }
  APF_CHECK(weight_total > 0.0);
  std::vector<double> acc(dim, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!upload[i]) continue;
    // Push: a relevant upload ships the full parameter vector as an "APD1"
    // dense buffer; the server aggregates the decoded values.
    std::vector<std::uint8_t> buf = wire::encode_dense(client_params[i]);
    const std::vector<float> decoded = wire::decode_dense(buf);
    result.bytes_up[i] = fl::ByteCount(buf.size());
    result.frames_up[i] = std::move(buf);
    const double w = weights[i] / weight_total;
    for (std::size_t j = 0; j < dim; ++j) {
      acc[j] += w * static_cast<double>(decoded[j] - global_[j]);
    }
  }
  for (std::size_t j = 0; j < dim; ++j) {
    prev_global_update_[j] = static_cast<float>(acc[j]);
    global_[j] += static_cast<float>(acc[j]);
  }
  // Pull: every client — dropped ones included — receives the new model as
  // one dense buffer (the long-standing CMFL convention charges all n).
  std::vector<std::uint8_t> down = wire::encode_dense(global_);
  const std::vector<float> decoded_down = wire::decode_dense(down);
  for (std::size_t i = 0; i < n; ++i) {
    client_params[i] = decoded_down;
    result.bytes_down[i] = fl::ByteCount(down.size());
    result.frames_down[i] = down;
  }
  return result;
}

}  // namespace apf::compress
