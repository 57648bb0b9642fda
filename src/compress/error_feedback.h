// Shared round of the error-feedback sparsifiers (TopK, RandK, Gaia).
//
// Each participant pushes a selection of its pending update (local change
// plus the residual it carried over) and keeps the rest in its residual.
// The server adds the weighted decoded selections to the global model, and
// the pull ships the full model as one dense frame. Weight-0 clients sit the
// round out: they push nothing, are billed no pull and their residual does
// not move, but they still adopt the new model.
//
// Residuals live in per-client slots that init() sizes; a slot stays empty
// until its client first takes part. Only that client's encode_push writes
// its slot, so encodes for distinct clients may run concurrently (the batch
// driver runs them on pool lanes). They move only inside a round armed by
// begin_fold().
#pragma once

#include <cstddef>
#include <vector>

#include "fl/sync_strategy.h"

namespace apf::compress {

class ErrorFeedbackSync : public fl::SyncStrategyBase {
 public:
  void init(std::span<const float> initial_params,
            std::size_t num_clients) override;

  /// Arms the fold; subclasses derive their per-round state first.
  void begin_fold(fl::RoundId round) override;
  /// Folds an "APS1" sparse push (TopK, Gaia).
  void fold_push(fl::ClientId client, std::span<const std::uint8_t> frame,
                 double normalized_weight) override;
  std::vector<std::uint8_t> finish_fold() override;
  void apply_pull(std::span<const std::uint8_t> frame,
                  std::vector<float>& params) const override;

  /// Per-client error-feedback residuals, materialized densely (client id ->
  /// vector; clients that never took part are all-zero). Exposed for the
  /// fuzz state oracle; live state is the lazy slots below.
  std::vector<std::vector<float>> residuals() const;

 protected:
  bool zero_weight_clients_exchange() const override { return false; }

  /// k = ceil(fraction * dim), at least 1.
  std::size_t selection_size(double fraction) const;

  /// `client`'s residual, zero-filled on first participation. Throws before
  /// touching any slot unless a round is armed, `params` has the model
  /// dimension and `client` is below init()'s client count, so an encode
  /// outside a round leaves every residual as it was.
  std::vector<float>& armed_residual(fl::ClientId client,
                                     std::span<const float> params);

  /// The round's weighted decoded updates; empty when no fold is armed.
  std::vector<double> acc_;

 private:
  // One slot per client; empty until the client's first push.
  std::vector<std::vector<float>> residual_;
};

}  // namespace apf::compress
