// Learning-rate schedules. Paper §7.8 uses a constant rate (no schedule)
// and a multiplicative decay; Theorem 2 motivates decaying rates.
#pragma once

#include <cstddef>
#include <memory>

namespace apf::optim {

class LrSchedule {
 public:
  virtual ~LrSchedule() = default;
  /// Learning rate to use in round/epoch `k` (0-based).
  virtual double lr(std::size_t k) const = 0;
};

/// lr(k) = initial * factor^(k / every) — the paper's "multiply by 0.99
/// every 10 epochs" setup (§7.8).
class MultiplicativeDecayLr : public LrSchedule {
 public:
  MultiplicativeDecayLr(double initial, double factor, std::size_t every);
  double lr(std::size_t k) const override;

 private:
  double initial_;
  double factor_;
  std::size_t every_;
};

}  // namespace apf::optim
