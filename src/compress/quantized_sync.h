// Stacking quantization on top of another strategy (paper §7.7's
// Quantization_Manager over APF_Manager).
//
// Push: each participant's transmitted scalars (the unfrozen ones when the
// inner strategy freezes, all of them otherwise) travel as a real "APH1"
// half-precision buffer; the inner strategy aggregates the decoded values.
// Pull: the post-sync scalars travel back the same way. Byte charges are the
// measured buffer sizes — masks are client-derived (§7.7 configuration), so
// no mask bytes ride along.
//
// The per-client push round trips run on util::compute_pool() lanes, each
// writing only its own client's slots. A pull is encoded once per distinct
// post-sync vector: participants whose vectors are bitwise equal share the
// frame and the decoded result, and each still gets its own frame copy and
// byte charge.
#pragma once

#include <memory>

#include "fl/sync_strategy.h"

namespace apf::compress {

class QuantizedSync : public fl::SyncStrategy {
 public:
  /// Takes ownership of the wrapped strategy.
  explicit QuantizedSync(std::unique_ptr<fl::SyncStrategy> inner);

  void init(std::span<const float> initial_params,
            std::size_t num_clients) override;
  // Own batch round: it transforms the inner strategy's batch round.
  Result synchronize(fl::RoundId round,
                     std::vector<std::vector<float>>& client_params,
                     const std::vector<double>& weights) override;
  std::span<const float> global_params() const override;
  const Bitmap* frozen_mask() const override;
  std::span<const float> frozen_anchor() const override;
  std::string name() const override;

 private:
  std::unique_ptr<fl::SyncStrategy> inner_;
};

}  // namespace apf::compress
