// Gaia-style significance sparsification (Hsieh et al., NSDI'17; paper §7.4).
//
// Each client pushes only the update components whose *relative* magnitude
// |u_j| / max(|x_j|, eps) exceeds a significance threshold, as an "APS1"
// sparse frame; insignificant components accumulate locally (error
// feedback) until they become significant. The threshold decays as training
// progresses, as in the Gaia paper. The pull phase ships the full model —
// Gaia compresses push only.
#pragma once

#include "compress/error_feedback.h"

namespace apf::compress {

struct GaiaOptions {
  double significance_threshold = 0.01;  // 1% relative change
  /// threshold(round) = significance_threshold / sqrt(round) when true.
  bool decay_threshold = true;
  double eps = 1e-8;  // floor on |x_j| for the relative test
};

class GaiaSync : public ErrorFeedbackSync {
 public:
  explicit GaiaSync(GaiaOptions options = {});

  /// Arms the fold and derives the round's significance threshold.
  void begin_fold(fl::RoundId round) override;
  std::vector<std::uint8_t> encode_push(
      fl::ClientId client, std::span<const float> params) override;
  std::string name() const override { return "Gaia"; }

 private:
  GaiaOptions options_;
  double threshold_ = 0.0;  // the armed round's
};

}  // namespace apf::compress
