// APF_Manager — the paper's Adaptive Parameter Freezing synchronization
// strategy (§4, §5, §6), covering standard APF, APF#, APF++, all the control
// ablations of §7.5 and the runtime threshold decay of §6.1.
//
// Responsibilities per communication round:
//  1. expose the current freezing mask + anchor so the runner can pin frozen
//     scalars after every local step (emulated fine-grained freezing),
//  2. aggregate only the unfrozen scalars (bytes charged accordingly — the
//     mask itself costs nothing: every client derives it from synchronized
//     state, so masks agree bit-for-bit across clients),
//  3. every Fc rounds, run a stability check over the accumulated global
//     update, feed verdicts to the FreezeController, and decay the stability
//     threshold when >= decay_trigger of scalars are frozen,
//  4. (APF# / APF++) draw deterministic pseudo-random freezes for unfrozen
//     scalars, seeded by the round index so all clients agree.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>

#include "core/freeze_controller.h"
#include "core/perturbation.h"
#include "fl/sync_strategy.h"
#include "util/rng.h"

namespace apf::core {

/// Random-freezing extension mode (§5).
enum class RandomFreezeMode {
  kNone,      // standard APF
  kSharp,     // APF#: unfrozen scalars frozen for 1 round w.p. `sharp_probability`
  kPlusPlus,  // APF++: probability a1*K, length ~ U[1, 1 + a2*K]
};

/// Freezing-decision granularity (§3.2.2's tensor-vs-scalar question).
/// kTensor is the all-or-nothing strawman: a whole tensor freezes when the
/// *mean* perturbation of its active scalars passes the threshold. Requires
/// set_segments(); provided for the granularity ablation.
enum class FreezeGranularity { kScalar, kTensor };

/// One tensor's slice of the flat parameter vector (offset, size); mirrors
/// nn::ParamSegment without depending on the nn module.
struct TensorSegment {
  std::size_t offset = 0;
  std::size_t size = 0;
};

struct ApfOptions {
  /// Stability threshold on effective perturbation (paper default 0.05).
  double stability_threshold = 0.05;
  /// EMA smoothing for the perturbation statistics (paper default 0.99).
  double ema_alpha = 0.99;
  /// Stability check cadence in rounds (Fc / Fs; paper default 50/10 = 5).
  std::size_t check_every_rounds = 5;
  /// Checks added / divisor applied by the controller; scaled with the check
  /// cadence for the §7.8 Fc-sensitivity experiment.
  FreezeControllerOptions controller;
  /// Halve the threshold when >= decay_trigger of scalars are frozen (§6.1).
  bool threshold_decay = true;
  double decay_trigger = 0.8;

  RandomFreezeMode random_mode = RandomFreezeMode::kNone;
  double sharp_probability = 0.5;  // APF#
  double pp_prob_coeff = 0.0;      // APF++ a1 (probability = min(1, a1*K))
  double pp_len_coeff = 0.0;       // APF++ a2 (length ~ U[1, 1 + a2*K])

  /// Decision granularity; kTensor needs set_segments() before init().
  FreezeGranularity granularity = FreezeGranularity::kScalar;
  /// kTensor verdict: a tensor freezes when at least this fraction of its
  /// evaluable scalars individually pass the stability threshold.
  double tensor_vote_fraction = 0.9;

  /// When true, models the §9 variant where the server maintains the mask
  /// and ships it to clients: the bitmap is charged on every download.
  bool server_side_mask = false;

  std::uint64_t seed = 0xAFF1E5ULL;
};

class ApfManager : public fl::SyncStrategyBase {
 public:
  explicit ApfManager(ApfOptions options = {});

  /// Registers the tensor layout; required for kTensor granularity, ignored
  /// otherwise. Segments must tile [0, dim).
  void set_segments(std::vector<TensorSegment> segments);

  void init(std::span<const float> initial_params,
            std::size_t num_clients) override;

  /// Streaming transport hooks (docs/TRANSPORT.md), driven in batch by
  /// SyncStrategyBase::synchronize(). encode_push packs under the mask in
  /// force for the round (the one local training ran with); finish_fold
  /// encodes the pull under that same mask BEFORE evolving it for the next
  /// round, and apply_pull rebuilds clients from the stored pull mask, so a
  /// late apply_pull is unaffected by the mask having moved on.
  ///
  /// encode_push reads only the effective mask and the model dimension, and
  /// apply_pull only the global model and the stored pull mask, so calls of
  /// either (for different clients) may run concurrently. begin_fold,
  /// fold_push and finish_fold mutate the fold state and stay serial.
  std::vector<std::uint8_t> encode_push(
      fl::ClientId client, std::span<const float> params) override;
  void begin_fold(fl::RoundId round) override;
  void fold_push(fl::ClientId client, std::span<const std::uint8_t> frame,
                 double normalized_weight) override;
  std::vector<std::uint8_t> finish_fold() override;
  void apply_pull(std::span<const std::uint8_t> frame,
                  std::vector<float>& params) const override;

  const Bitmap* frozen_mask() const override { return &effective_mask_; }
  std::span<const float> frozen_anchor() const override { return global_; }
  std::string name() const override;

  /// Diagnostics.
  double stability_threshold() const { return threshold_; }
  double stable_fraction() const { return controller_->frozen_fraction(); }
  const FreezeController& controller() const { return *controller_; }
  const EmaPerturbation& perturbation() const { return *perturbation_; }

  /// Serializes the complete manager state (global model, EMA statistics,
  /// controller periods, masks, threshold, counters) so a server can resume
  /// a training job after a restart without losing freezing progress.
  void save_state(std::ostream& os) const;

  /// Restores a state written by save_state(). Must be called after init()
  /// with the same model dimension and equivalent options; throws apf::Error
  /// on any mismatch or truncation.
  // No run resumes yet, so only the checkpoint round-trip tests call it.
  // lint-apf: allow-test-only-api(restore half of the save_state pair)
  void load_state(std::istream& is);

 protected:
  /// The mask the round trained with, not the one finish_fold() evolved.
  double round_frozen_fraction() const override {
    return fold_frozen_fraction_;
  }

 private:
  void run_stability_check();
  void advance_random_freezing(std::size_t round);
  void rebuild_effective_mask();

  ApfOptions options_;
  std::vector<TensorSegment> segments_;
  std::vector<std::size_t> segment_of_;  // scalar index -> segment index
  std::vector<char> segment_stable_;     // per-segment verdict at last check
  double threshold_ = 0.0;
  std::optional<EmaPerturbation> perturbation_;
  std::optional<FreezeController> controller_;
  std::vector<float> delta_accum_;        // global update since last check
  Bitmap window_frozen_;                  // frozen at any round this window
  std::vector<std::uint32_t> random_remaining_;  // rounds (APF# / APF++)
  Bitmap effective_mask_;                 // stability OR random freezing
  std::size_t rounds_since_check_ = 0;

  // Streaming-fold state (valid between begin_fold and finish_fold; the
  // pull mask persists until the next finish_fold so apply_pull works
  // after the effective mask has evolved).
  std::optional<transport::StreamingAggregator> agg_;
  Bitmap pull_mask_;
  double fold_frozen_fraction_ = 0.0;
  std::size_t fold_round_ = 0;
};

}  // namespace apf::core
