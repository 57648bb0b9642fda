#include "compress/error_feedback.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "wire/wire.h"

namespace apf::compress {

void ErrorFeedbackSync::init(std::span<const float> initial_params,
                             std::size_t num_clients) {
  SyncStrategyBase::init(initial_params, num_clients);
  acc_.clear();
  residual_.assign(num_clients, {});
}

std::vector<std::vector<float>> ErrorFeedbackSync::residuals() const {
  std::vector<std::vector<float>> out = residual_;
  for (std::vector<float>& r : out) {
    if (r.empty()) r.assign(global_.size(), 0.f);
  }
  return out;
}

std::size_t ErrorFeedbackSync::selection_size(double fraction) const {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(fraction * static_cast<double>(global_.size()))));
}

std::vector<float>& ErrorFeedbackSync::armed_residual(
    fl::ClientId client, std::span<const float> params) {
  APF_CHECK_MSG(!acc_.empty(), name() << " encode_push before begin_fold()");
  APF_CHECK(params.size() == global_.size());
  APF_CHECK_MSG(client.value() < residual_.size(),
                name() << " client " << client << " out of range ("
                       << residual_.size() << " clients)");
  std::vector<float>& residual = residual_[client.value()];
  if (residual.empty()) residual.assign(global_.size(), 0.f);
  return residual;
}

void ErrorFeedbackSync::begin_fold(fl::RoundId /*round*/) {
  APF_CHECK_MSG(!global_.empty(), "begin_fold before init()");
  acc_.assign(global_.size(), 0.0);
}

void ErrorFeedbackSync::fold_push(fl::ClientId /*client*/,
                                  std::span<const std::uint8_t> frame,
                                  double normalized_weight) {
  APF_CHECK_MSG(!acc_.empty(), "fold_push before begin_fold()");
  const wire::SparsePayload decoded = wire::decode_sparse(frame);
  APF_CHECK(decoded.dim == acc_.size());
  for (std::size_t t = 0; t < decoded.indices.size(); ++t) {
    acc_[decoded.indices[t]] +=
        normalized_weight * static_cast<double>(decoded.values[t]);
  }
}

std::vector<std::uint8_t> ErrorFeedbackSync::finish_fold() {
  APF_CHECK_MSG(!acc_.empty(), "finish_fold before begin_fold()");
  for (std::size_t j = 0; j < global_.size(); ++j) {
    global_[j] += static_cast<float>(acc_[j]);
  }
  acc_.clear();
  return wire::encode_dense(global_);
}

void ErrorFeedbackSync::apply_pull(std::span<const std::uint8_t> frame,
                                   std::vector<float>& params) const {
  std::vector<float> decoded = wire::decode_dense(frame);
  APF_CHECK(decoded.size() == global_.size());
  params = std::move(decoded);
}

}  // namespace apf::compress
