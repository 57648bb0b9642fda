// The two strawman solutions of §4.1, kept as first-class strategies so the
// Fig. 4/5/6/12 experiments can reproduce their failure modes.
//
//  * PartialSync — stabilized scalars are permanently excluded from
//    synchronization but keep training locally. On non-IID data the local
//    copies diverge toward different local optima; the server's view of
//    these scalars goes stale and global accuracy suffers (Fig. 4/5).
//  * PermanentFreeze — stabilized scalars are frozen forever at their
//    current value. Consistent across clients, but scalars that stabilized
//    only temporarily can never reach their true optima (Fig. 6/7).
//
// Both use the same EMA effective-perturbation detector as APF; the verdict
// is simply irreversible.
#pragma once

#include <iosfwd>
#include <optional>

#include "core/perturbation.h"
#include "fl/sync_strategy.h"

namespace apf::core {

struct StrawmanOptions {
  double stability_threshold = 0.05;
  double ema_alpha = 0.99;
  std::size_t check_every_rounds = 5;
};

/// Shared detection plumbing and round hooks for the two strawmen: pushes
/// pack the non-excluded scalars under the mask in force at upload time,
/// the fold leaves excluded scalars at the server's stale value, and the
/// pull packs the live scalars under the (possibly grown) post-round mask.
/// The two differ only in how a client applies that pull.
class StrawmanBase : public fl::SyncStrategyBase {
 public:
  explicit StrawmanBase(StrawmanOptions options);

  void init(std::span<const float> initial_params,
            std::size_t num_clients) override;

  std::vector<std::uint8_t> encode_push(
      fl::ClientId client, std::span<const float> params) override;
  void begin_fold(fl::RoundId round) override;
  void fold_push(fl::ClientId client, std::span<const std::uint8_t> frame,
                 double normalized_weight) override;
  std::vector<std::uint8_t> finish_fold() override;

  double excluded_fraction() const { return excluded_.fraction(); }
  const Bitmap& excluded() const { return excluded_; }

  /// Serializes the complete strawman state (global model, EMA statistics,
  /// exclusion mask, counters) for restart/resume and for the fuzz oracle's
  /// snapshot-compare (a rejected round must leave this byte-identical).
  void save_state(std::ostream& os) const;

  /// Restores a state written by save_state(). Must be called after init()
  /// with the same model dimension; throws apf::Error on any mismatch or
  /// truncation.
  // No run resumes yet, so only the checkpoint round-trip tests call it.
  // lint-apf: allow-test-only-api(restore half of the save_state pair)
  void load_state(std::istream& is);

 protected:
  /// The post-round excluded set.
  double round_frozen_fraction() const override {
    return excluded_.fraction();
  }

  /// Folds this round's global delta and, at check cadence, marks newly
  /// stabilized scalars as permanently excluded.
  void observe_round(std::span<const float> new_global);

  StrawmanOptions options_;
  std::optional<EmaPerturbation> perturbation_;
  std::optional<transport::StreamingAggregator> agg_;
  std::vector<float> delta_accum_;
  Bitmap excluded_;
  std::size_t rounds_since_check_ = 0;
};

/// Excluded scalars keep training locally: a client scatters the pull into
/// its live positions and keeps its own values everywhere else.
class PartialSync : public StrawmanBase {
 public:
  explicit PartialSync(StrawmanOptions options = {});

  void apply_pull(std::span<const std::uint8_t> frame,
                  std::vector<float>& params) const override;
  std::string name() const override { return "PartialSync"; }
};

/// Excluded scalars are frozen at the anchor: a client rebuilds its full
/// vector from the global model plus the pulled live scalars.
class PermanentFreeze : public StrawmanBase {
 public:
  explicit PermanentFreeze(StrawmanOptions options = {});

  void apply_pull(std::span<const std::uint8_t> frame,
                  std::vector<float>& params) const override;
  const Bitmap* frozen_mask() const override { return &excluded_; }
  std::span<const float> frozen_anchor() const override { return global_; }
  std::string name() const override { return "PermanentFreeze"; }
};

}  // namespace apf::core
