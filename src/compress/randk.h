// Rand-k sparsification with error feedback: each client pushes a random k
// fraction of its pending update coordinates, unbiased-scaled by 1/fraction.
// The selection is drawn per round from the synchronized round index, so
// client and server agree on the coordinate set without transmitting
// indices (only the payload and a tiny seed are charged).
//
// Rand-k is the classic unbiased counterpart of Top-k: cheaper to select and
// index-free, but blind to magnitude — a useful reference point for how much
// of Top-k's (and APF's) benefit comes from *informed* selection.
#pragma once

#include <cstdint>

#include "compress/error_feedback.h"

namespace apf::compress {

struct RandKOptions {
  double fraction = 0.1;  // k = ceil(fraction * dim)
  /// Scale transmitted coordinates by 1/fraction so the expected aggregated
  /// update is unbiased. Disable to study the biased variant.
  bool unbiased_scaling = true;
  std::uint64_t seed = 0x5EEDULL;
};

class RandKSync : public ErrorFeedbackSync {
 public:
  explicit RandKSync(RandKOptions options = {});

  /// Arms the fold and draws the round's coordinate set.
  void begin_fold(fl::RoundId round) override;
  std::vector<std::uint8_t> encode_push(
      fl::ClientId client, std::span<const float> params) override;
  /// Folds an "APR1" values-only push over the round's coordinate set.
  void fold_push(fl::ClientId client, std::span<const std::uint8_t> frame,
                 double normalized_weight) override;
  std::string name() const override { return "RandK"; }

 private:
  RandKOptions options_;
  // The armed round's selection: seed material, ascending coordinates (the
  // order values travel in) and the scale applied on the server.
  std::uint64_t mix_ = 0;
  std::vector<std::size_t> coords_;
  float scale_ = 1.f;
};

}  // namespace apf::compress
