// Composable SyncStrategy wrappers.
//
//  * UpdateQuantizedSync — pushes each participant's *update* (local params
//    minus the global model, restricted to unfrozen coordinates) through an
//    UpdateCodec (QSGD / TernGrad) as a real framed wire buffer before the
//    wrapped strategy aggregates the decoded values. Push bytes are the
//    measured buffer sizes; the pull direction is left to the inner strategy
//    (QSGD and TernGrad compress gradients/push only).
//  * DpNoiseSync — client-side differential-privacy noise (paper §9): adds
//    i.i.d. Gaussian noise to each client's pushed update. Used to study the
//    DP <-> effective-perturbation interplay.
#pragma once

#include <memory>

#include "compress/codecs.h"
#include "fl/sync_strategy.h"
#include "util/rng.h"

namespace apf::compress {

class UpdateQuantizedSync : public fl::SyncStrategy {
 public:
  UpdateQuantizedSync(std::unique_ptr<fl::SyncStrategy> inner,
                      std::unique_ptr<UpdateCodec> codec,
                      std::uint64_t seed = 0x0DEC0DEULL);

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

  /// The wrapped strategy, for state inspection (snapshot oracles recurse
  /// through the wrapper to reach the inner EMA / freezing state).
  const fl::SyncStrategy& inner() const { return *inner_; }

 private:
  std::unique_ptr<fl::SyncStrategy> inner_;
  std::unique_ptr<UpdateCodec> codec_;
  Rng rng_;
};

class DpNoiseSync : public fl::SyncStrategy {
 public:
  /// `noise_stddev` is the sigma of the Gaussian added to every pushed
  /// update coordinate on every client.
  DpNoiseSync(std::unique_ptr<fl::SyncStrategy> inner, double noise_stddev,
              std::uint64_t seed = 0xD9ULL);

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
  double noise_stddev_;
  Rng rng_;
};

}  // namespace apf::compress
