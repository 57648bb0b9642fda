#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/apf_manager.h"
#include "core/strawmen.h"
#include "util/error.h"
#include "util/rng.h"

namespace apf {
namespace {

using core::ApfManager;
using core::ApfOptions;
using core::PartialSync;
using core::PermanentFreeze;
using core::RandomFreezeMode;
using core::StrawmanOptions;

/// Drives a manager with a synthetic "training" process over `dim` scalars:
/// half the scalars oscillate (stable), half drift (unstable). Frozen
/// scalars are pinned, mirroring the runner's rollback.
struct SyntheticDriver {
  explicit SyntheticDriver(fl::SyncStrategy& strategy, std::size_t dim,
                           std::size_t num_clients = 2)
      : strategy_(strategy), dim_(dim), n_(num_clients) {
    std::vector<float> init(dim, 0.f);
    strategy_.init(init, n_);
    params_.assign(n_, init);
  }

  /// One round: oscillators flip sign, drifters move +0.01 per round.
  void round(std::size_t k) {
    const auto global = strategy_.global_params();
    const Bitmap* mask = strategy_.frozen_mask();
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < dim_; ++j) {
        const bool oscillator = j < dim_ / 2;
        const float step = oscillator
                               ? (k % 2 == 0 ? 0.05f : -0.05f)
                               : 0.01f;
        params_[i][j] = global[j] + step;
        if (mask != nullptr && mask->get(j)) {
          params_[i][j] = strategy_.frozen_anchor()[j];
        }
      }
    }
    last_ = strategy_.synchronize(fl::RoundId(k), params_, std::vector<double>(n_, 1.0));
  }

  fl::SyncStrategy& strategy_;
  std::size_t dim_, n_;
  std::vector<std::vector<float>> params_;
  fl::SyncStrategy::Result last_;
};

ApfOptions fast_options() {
  ApfOptions opt;
  opt.check_every_rounds = 2;
  opt.ema_alpha = 0.5;  // fast-moving statistics for short tests
  opt.stability_threshold = 0.3;
  opt.threshold_decay = false;
  return opt;
}

TEST(ApfManager, StartsWithNothingFrozen) {
  ApfManager manager(fast_options());
  manager.init(std::vector<float>(10, 0.f), 2);
  EXPECT_EQ(manager.frozen_mask()->count(), 0u);
}

TEST(ApfManager, EventuallyFreezesOscillators) {
  ApfManager manager(fast_options());
  SyntheticDriver driver(manager, 20);
  // Count per-scalar frozen rounds: oscillators (first half) should spend
  // most rounds frozen, drifters (second half) none.
  std::vector<std::size_t> frozen_rounds(20, 0);
  for (std::size_t k = 1; k <= 60; ++k) {
    driver.round(k);
    for (std::size_t j = 0; j < 20; ++j) {
      frozen_rounds[j] += manager.frozen_mask()->get(j);
    }
  }
  for (std::size_t j = 0; j < 10; ++j) {
    EXPECT_GT(frozen_rounds[j], 30u) << "oscillator " << j;
  }
  for (std::size_t j = 10; j < 20; ++j) {
    EXPECT_EQ(frozen_rounds[j], 0u) << "drifter " << j;
  }
}

TEST(ApfManager, FrozenScalarsKeepTheirValueAcrossRounds) {
  ApfManager manager(fast_options());
  SyntheticDriver driver(manager, 20);
  for (std::size_t k = 1; k <= 20; ++k) driver.round(k);
  const Bitmap mask = *manager.frozen_mask();
  std::vector<float> before(manager.global_params().begin(),
                            manager.global_params().end());
  driver.round(21);
  if (manager.frozen_mask()->count() > 0) {
    for (std::size_t j = 0; j < 20; ++j) {
      if (mask.get(j) && manager.frozen_mask()->get(j)) {
        EXPECT_EQ(manager.global_params()[j], before[j]) << j;
      }
    }
  }
}

TEST(ApfManager, BytesScaleWithUnfrozenCount) {
  ApfManager manager(fast_options());
  SyntheticDriver driver(manager, 20);
  driver.round(1);
  EXPECT_EQ(driver.last_.bytes_up[0], fl::ByteCount(8 + 4 * 20));
  // Each round's bytes must equal the measured APD1 frame over the packed
  // unfrozen coordinates — 8-byte header + 4 * (dim - frozen) — and
  // freezing must reduce traffic on at least half the rounds.
  std::size_t cheap_rounds = 0;
  for (std::size_t k = 2; k <= 60; ++k) {
    const std::size_t frozen = manager.frozen_mask()->count();
    driver.round(k);
    EXPECT_EQ(driver.last_.bytes_up[0], fl::ByteCount(8 + 4 * (20 - frozen)));
    EXPECT_EQ(driver.last_.bytes_down[0],
              fl::ByteCount(8 + 4 * (20 - frozen)));
    if (frozen > 0) ++cheap_rounds;
  }
  EXPECT_GT(cheap_rounds, 29u);
}

TEST(ApfManager, ClientsAgreeAfterSync) {
  ApfManager manager(fast_options());
  SyntheticDriver driver(manager, 16, 3);
  for (std::size_t k = 1; k <= 15; ++k) {
    driver.round(k);
    EXPECT_EQ(driver.params_[0], driver.params_[1]);
    EXPECT_EQ(driver.params_[1], driver.params_[2]);
  }
}

TEST(ApfManager, UnfreezesWhenOscillatorStartsDrifting) {
  // A temporarily-stable scalar must escape the frozen state (Principle 2).
  ApfOptions opt = fast_options();
  ApfManager manager(opt);
  std::vector<float> init(4, 0.f);
  manager.init(init, 1);
  std::vector<std::vector<float>> params(1, init);
  auto do_round = [&](std::size_t k, float step) {
    const auto global = manager.global_params();
    const Bitmap* mask = manager.frozen_mask();
    for (std::size_t j = 0; j < 4; ++j) {
      params[0][j] = global[j] + step;
      if (mask->get(j)) params[0][j] = manager.frozen_anchor()[j];
    }
    manager.synchronize(fl::RoundId(k), params, {1.0});
  };
  // Phase 1: oscillate -> should freeze.
  std::size_t k = 1;
  for (; k <= 30; ++k) do_round(k, k % 2 == 0 ? 0.05f : -0.05f);
  EXPECT_GT(manager.frozen_mask()->count(), 0u);
  // Phase 2: drift strongly; whenever a scalar is unfrozen it moves with a
  // consistent sign, so every re-evaluation finds it unstable and the
  // freezing period collapses back to zero.
  for (; k <= 130; ++k) do_round(k, 0.05f);
  EXPECT_EQ(manager.frozen_mask()->count(), 0u);
  // And the drifting value advanced well past the freeze anchor.
  EXPECT_GT(manager.global_params()[0], 0.3f);
}

TEST(ApfManager, ThresholdDecayTightensWhenMostFrozen) {
  ApfOptions opt = fast_options();
  opt.threshold_decay = true;
  opt.decay_trigger = 0.5;
  ApfManager manager(opt);
  SyntheticDriver driver(manager, 8);  // only 4 oscillators = 50%
  const double initial = manager.stability_threshold();
  // Can't observe before init.
  for (std::size_t k = 1; k <= 60; ++k) driver.round(k);
  EXPECT_LT(manager.stability_threshold(), initial);
}

/// Driver where every scalar drifts with a constant sign, so the stability
/// detector never fires and random freezing can be measured in isolation.
struct DriftDriver {
  explicit DriftDriver(fl::SyncStrategy& strategy, std::size_t dim)
      : strategy_(strategy), dim_(dim) {
    std::vector<float> init(dim, 0.f);
    strategy_.init(init, 1);
    params_.assign(1, init);
  }

  void round(std::size_t k) {
    const auto global = strategy_.global_params();
    const Bitmap* mask = strategy_.frozen_mask();
    for (std::size_t j = 0; j < dim_; ++j) {
      params_[0][j] = global[j] + 0.01f;
      if (mask != nullptr && mask->get(j)) {
        params_[0][j] = strategy_.frozen_anchor()[j];
      }
    }
    last_ = strategy_.synchronize(fl::RoundId(k), params_, {1.0});
  }

  fl::SyncStrategy& strategy_;
  std::size_t dim_;
  std::vector<std::vector<float>> params_;
  fl::SyncStrategy::Result last_;
};

TEST(ApfManager, SharpModeFreezesRandomScalars) {
  ApfOptions opt = fast_options();
  opt.random_mode = RandomFreezeMode::kSharp;
  opt.sharp_probability = 0.5;
  ApfManager manager(opt);
  DriftDriver driver(manager, 200);
  double frozen_sum = 0.0;
  for (std::size_t k = 1; k <= 30; ++k) {
    driver.round(k);
    frozen_sum += driver.last_.frozen_fraction;
  }
  // Roughly half the scalars should be randomly frozen each round (round 1
  // starts unfrozen, pulling the average slightly below 0.5).
  EXPECT_NEAR(frozen_sum / 30.0, 0.5, 0.1);
}

TEST(ApfManager, SharpModeDeterministicAcrossInstances) {
  auto make = [] {
    ApfOptions opt = fast_options();
    opt.random_mode = RandomFreezeMode::kSharp;
    opt.seed = 99;
    return ApfManager(opt);
  };
  ApfManager a = make(), b = make();
  SyntheticDriver da(a, 50), db(b, 50);
  for (std::size_t k = 1; k <= 10; ++k) {
    da.round(k);
    db.round(k);
    EXPECT_EQ(*a.frozen_mask(), *b.frozen_mask()) << "round " << k;
  }
}

TEST(ApfManager, PlusPlusFreezingRampsUp) {
  ApfOptions opt = fast_options();
  opt.random_mode = RandomFreezeMode::kPlusPlus;
  opt.pp_prob_coeff = 0.02;  // probability = 0.02 * K
  opt.pp_len_coeff = 0.1;
  ApfManager manager(opt);
  DriftDriver driver(manager, 100);
  double early = 0.0, late = 0.0;
  for (std::size_t k = 1; k <= 10; ++k) {
    driver.round(k);
    early += driver.last_.frozen_fraction;
  }
  for (std::size_t k = 11; k <= 40; ++k) driver.round(k);
  for (std::size_t k = 41; k <= 50; ++k) {
    driver.round(k);
    late += driver.last_.frozen_fraction;
  }
  EXPECT_GT(late / 10.0, early / 10.0 + 0.2);
}

TEST(ApfManager, NamesReflectVariant) {
  ApfOptions opt;
  EXPECT_EQ(ApfManager(opt).name(), "APF");
  opt.random_mode = RandomFreezeMode::kSharp;
  EXPECT_EQ(ApfManager(opt).name(), "APF#");
  opt.random_mode = RandomFreezeMode::kPlusPlus;
  EXPECT_EQ(ApfManager(opt).name(), "APF++");
}

TEST(ApfManager, RejectsBadOptions) {
  ApfOptions opt;
  opt.stability_threshold = 0.0;
  EXPECT_THROW(ApfManager{opt}, Error);
  opt = ApfOptions{};
  opt.check_every_rounds = 0;
  EXPECT_THROW(ApfManager{opt}, Error);
  opt = ApfOptions{};
  opt.random_mode = RandomFreezeMode::kSharp;
  opt.sharp_probability = 1.5;
  EXPECT_THROW(ApfManager{opt}, Error);
}

// ---------------------------------------------------------------------------
// Strawmen
// ---------------------------------------------------------------------------

StrawmanOptions fast_strawman() {
  StrawmanOptions opt;
  opt.check_every_rounds = 2;
  opt.ema_alpha = 0.5;
  opt.stability_threshold = 0.3;
  return opt;
}

TEST(PartialSyncStrawman, ExcludedScalarsDivergeAcrossClients) {
  PartialSync strategy(fast_strawman());
  std::vector<float> init(4, 0.f);
  strategy.init(init, 2);
  std::vector<std::vector<float>> params(2, init);
  for (std::size_t k = 1; k <= 60; ++k) {
    const auto global = strategy.global_params();
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        // Before exclusion both clients oscillate around the global value;
        // after exclusion each client walks toward its own local optimum.
        const float base = strategy.excluded().get(j)
                               ? params[i][j]
                               : global[j];
        const float osc = (k % 2 == 0 ? 0.05f : -0.05f);
        const float drift = (i == 0 ? 0.02f : -0.02f);
        params[i][j] =
            base + (strategy.excluded().get(j) ? drift : osc);
      }
    }
    strategy.synchronize(fl::RoundId(k), params, {1.0, 1.0});
  }
  EXPECT_GT(strategy.excluded_fraction(), 0.0);
  // Local copies of excluded scalars disagree (the paper's Fig. 4).
  bool diverged = false;
  for (std::size_t j = 0; j < 4; ++j) {
    if (strategy.excluded().get(j)) {
      diverged |= std::fabs(params[0][j] - params[1][j]) > 0.5f;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(PartialSyncStrawman, ExclusionIsIrreversible) {
  PartialSync strategy(fast_strawman());
  SyntheticDriver driver(strategy, 8);
  std::size_t max_excluded = 0;
  for (std::size_t k = 1; k <= 40; ++k) {
    driver.round(k);
    const std::size_t now = strategy.excluded().count();
    EXPECT_GE(now, max_excluded);  // monotone
    max_excluded = std::max(max_excluded, now);
  }
  EXPECT_GT(max_excluded, 0u);
}

TEST(PermanentFreezeStrawman, FrozenForever) {
  PermanentFreeze strategy(fast_strawman());
  SyntheticDriver driver(strategy, 8);
  for (std::size_t k = 1; k <= 30; ++k) driver.round(k);
  ASSERT_GT(strategy.excluded().count(), 0u);
  // Record anchors, keep running, values never change again.
  std::vector<float> anchors(strategy.global_params().begin(),
                             strategy.global_params().end());
  const Bitmap frozen = strategy.excluded();
  for (std::size_t k = 31; k <= 60; ++k) driver.round(k);
  for (std::size_t j = 0; j < 8; ++j) {
    if (frozen.get(j)) {
      EXPECT_EQ(strategy.global_params()[j], anchors[j]);
    }
  }
}

TEST(ApfManager, StreamHooksMatchBatchSynchronize) {
  // Two identical managers, several rounds in: one runs the batch
  // synchronize() driver, the other is driven through its StreamSync hooks
  // (the transport-bus path). Both must produce the same pull frame, the
  // same global model, and the same evolved mask — including across the
  // stability check where the mask moves AFTER the pull frame is cut.
  ApfOptions opt;
  opt.check_every_rounds = 2;
  opt.stability_threshold = 0.4;
  ApfManager batch(opt), streamed(opt);
  const std::size_t dim = 6, n = 2;
  std::vector<float> init(dim, 0.f);
  batch.init(init, n);
  streamed.init(init, n);
  fl::StreamSync* stream = streamed.stream_sync();
  ASSERT_NE(stream, nullptr);

  std::vector<std::vector<float>> batch_params(n, init);
  std::vector<std::vector<float>> stream_params(n, init);
  const std::vector<double> weights = {1.0, 2.0};
  for (std::size_t k = 1; k <= 8; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        // Half oscillate, half drift; both replicas see identical values.
        const float step = (j < dim / 2)
                               ? ((k % 2 == 0) ? 0.5f : -0.5f)
                               : 0.1f * static_cast<float>(j + i + 1);
        batch_params[i][j] += step;
        stream_params[i][j] = batch_params[i][j];
      }
    }
    const auto result = batch.synchronize(fl::RoundId(k), batch_params, weights);

    stream->begin_fold(fl::RoundId(k));
    for (std::size_t i = 0; i < n; ++i) {
      const auto frame = stream->encode_push(fl::ClientId(i), stream_params[i]);
      EXPECT_EQ(fl::ByteCount(frame.size()), result.bytes_up[i])
          << "round " << k << " client " << i;
      stream->fold_push(fl::ClientId(i), frame, weights[i] / 3.0);
    }
    const auto pull = stream->finish_fold();
    EXPECT_EQ(pull, result.frames_down[0]) << "round " << k;
    for (std::size_t i = 0; i < n; ++i) {
      stream->apply_pull(pull, stream_params[i]);
      EXPECT_EQ(stream_params[i], batch_params[i])
          << "round " << k << " client " << i;
    }
  }
  EXPECT_TRUE(std::equal(streamed.global_params().begin(),
                         streamed.global_params().end(),
                         batch.global_params().begin()));
}

TEST(PermanentFreezeStrawman, ReportsFrozenMaskForPinning) {
  PermanentFreeze strategy(fast_strawman());
  std::vector<float> init(4, 0.f);
  strategy.init(init, 1);
  EXPECT_NE(strategy.frozen_mask(), nullptr);
  PartialSync partial(fast_strawman());
  partial.init(init, 1);
  EXPECT_EQ(partial.frozen_mask(), nullptr);  // partial sync does not pin
}

}  // namespace
}  // namespace apf
