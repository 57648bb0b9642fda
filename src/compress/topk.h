// Top-k magnitude sparsification with error feedback (classic baseline in
// the sparsification literature, e.g. Dryden et al. / Strom).
//
// Each client pushes the k largest-magnitude components of its pending
// update (local change + carried residual) as an "APS1" sparse frame; the
// rest accumulate locally. Pull ships the full model.
#pragma once

#include "compress/error_feedback.h"

namespace apf::compress {

struct TopKOptions {
  double fraction = 0.1;  // k = ceil(fraction * dim)
};

class TopKSync : public ErrorFeedbackSync {
 public:
  explicit TopKSync(TopKOptions options = {});

  std::vector<std::uint8_t> encode_push(
      fl::ClientId client, std::span<const float> params) override;
  std::string name() const override { return "TopK"; }

 private:
  TopKOptions options_;
};

}  // namespace apf::compress
