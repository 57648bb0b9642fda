// CMFL relevance filtering (Wang et al., ICDCS'19; paper §7.4).
//
// A client's whole update is uploaded only when it is "relevant": the
// fraction of components whose sign agrees with the previous global update
// must exceed a relevance threshold. Irrelevant updates are discarded (the
// client's round of work is not aggregated). Pull ships the full model.
#pragma once

#include "fl/sync_strategy.h"

namespace apf::compress {

struct CmflOptions {
  double relevance_threshold = 0.8;
  /// threshold(round) = relevance_threshold * decay^(round-1); 1.0 = fixed.
  double threshold_decay = 1.0;
};

/// Batch-only: not a SyncStrategyBase, because the two-phase relevance
/// filter (every upload judged before any fold, with an all-filtered
/// fallback and weights renormalized over the accepted uploads) cannot be
/// split into per-client push hooks bit-identically.
class CmflSync : public fl::SyncStrategy {
 public:
  explicit CmflSync(CmflOptions options = {});

  void init(std::span<const float> initial_params,
            std::size_t num_clients) override;
  // Own batch round: relevance is judged for every client before any fold.
  Result synchronize(fl::RoundId round,
                     std::vector<std::vector<float>>& client_params,
                     const std::vector<double>& weights) override;
  std::span<const float> global_params() const override { return global_; }
  std::string name() const override { return "CMFL"; }

  /// Persistent state exposed for the fuzz state oracle.
  const std::vector<float>& prev_update() const {
    return prev_global_update_;
  }
  std::size_t considered() const { return considered_; }
  std::size_t accepted() const { return accepted_; }

 private:
  CmflOptions options_;
  std::vector<float> global_;
  std::size_t num_clients_ = 0;
  std::vector<float> prev_global_update_;
  std::size_t accepted_ = 0;
  std::size_t considered_ = 0;
};

}  // namespace apf::compress
