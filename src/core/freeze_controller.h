// Per-scalar freezing-period control (paper Fig. 8 / Alg. 1, §7.5 ablations).
//
// Every scalar carries a freezing period L (in stability checks) and a
// remaining-frozen counter. At each check, frozen scalars tick down; active
// scalars are (re-)evaluated and their period adjusted by the control policy:
//
//  * kAimd (the paper's TCP-style default): stable -> L += step,
//    unstable -> L /= factor.
//  * kPureAdditive:        stable -> L += step, unstable -> L -= step.
//  * kPureMultiplicative:  stable -> L = max(1, L * factor),
//                          unstable -> L /= factor.
//  * kFixed:               stable -> L = fixed_period, unstable -> L = 0.
//
// Note on the paper's Alg. 1: its pseudocode recomputes L for *every* scalar
// at every check, but a frozen scalar's effective perturbation cannot change
// while frozen (its updates are zero), so the literal pseudocode would never
// unfreeze anything. The flowchart (Fig. 8) resolves this: a period is
// adjusted only after it expires and the parameter has trained through a full
// observation window. This class implements the Fig. 8 semantics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "util/bitmap.h"
#include "util/error.h"

namespace apf::core {

enum class ControlPolicy {
  kAimd,
  kPureAdditive,
  kPureMultiplicative,
  kFixed,
};

struct FreezeControllerOptions {
  ControlPolicy policy = ControlPolicy::kAimd;
  std::uint32_t additive_step = 1;          // checks added when stable
  std::uint32_t multiplicative_factor = 2;  // divisor (and mult. growth)
  std::uint32_t fixed_period = 10;          // kFixed: freeze length
  std::uint32_t max_period = 1u << 20;      // safety cap
};

class FreezeController {
 public:
  FreezeController(std::size_t dim, FreezeControllerOptions options = {});

  /// Runs one stability check.
  ///  - `evaluable(j)`: whether scalar j trained through the whole window
  ///    (the manager excludes scalars randomly frozen mid-window).
  ///  - `stable(j)`: the stability verdict; called only for active,
  ///    evaluable scalars.
  /// Updates periods, remaining counters and the frozen mask. The
  /// predicates are template parameters so the per-scalar calls inline; a
  /// null predicate (nullptr, a null function pointer or an empty
  /// std::function) raises apf::Error before any state changes.
  template <typename Evaluable, typename Stable>
  void check(const Evaluable& evaluable, const Stable& stable) {
    APF_CHECK_MSG(!is_null_predicate(evaluable) && !is_null_predicate(stable),
                  "null predicate passed to check()");
    // A literal nullptr has no call operator; the check above rejected it.
    if constexpr (!std::is_null_pointer_v<Evaluable> &&
                  !std::is_null_pointer_v<Stable>) {
      for (std::size_t j = 0; j < period_.size(); ++j) {
        if (remaining_[j] > 0) {
          // Still serving a freezing period; tick down.
          --remaining_[j];
        } else if (evaluable(j)) {
          // Trained through a full window: adjust the period per policy.
          period_[j] = std::min(next_period(period_[j], stable(j)),
                                options_.max_period);
          remaining_[j] = period_[j];
        }
        // else: active but interrupted mid-window (random freezing); leave
        // the period untouched and re-evaluate after the next full window.
        mask_.set(j, remaining_[j] > 0);
      }
    }
  }

  const Bitmap& mask() const { return mask_; }
  bool frozen(std::size_t j) const { return remaining_[j] > 0; }
  std::uint32_t remaining(std::size_t j) const { return remaining_[j]; }
  double frozen_fraction() const { return mask_.fraction(); }
  std::size_t dim() const { return period_.size(); }

  /// Raw state (serialization support).
  std::span<const std::uint32_t> raw_periods() const { return period_; }
  std::span<const std::uint32_t> raw_remaining() const { return remaining_; }
  /// Restores periods/remaining and rebuilds the mask.
  void restore(std::span<const std::uint32_t> periods,
               std::span<const std::uint32_t> remaining);

 private:
  std::uint32_t next_period(std::uint32_t current, bool stable) const;

  /// Only callables that can be null are checked: nullptr itself, function
  /// pointers and types with an explicit operator bool (std::function). A
  /// lambda converts to bool only through its function pointer, which is
  /// never null.
  template <typename F>
  static bool is_null_predicate(const F& f) {
    if constexpr (std::is_null_pointer_v<F>) {
      return true;
    } else if constexpr (std::is_pointer_v<F>) {
      return f == nullptr;
    } else if constexpr (std::is_constructible_v<bool, const F&> &&
                         !std::is_convertible_v<const F&, bool>) {
      return !static_cast<bool>(f);
    } else {
      return false;
    }
  }

  FreezeControllerOptions options_;
  std::vector<std::uint32_t> period_;
  std::vector<std::uint32_t> remaining_;
  Bitmap mask_;
};

}  // namespace apf::core
