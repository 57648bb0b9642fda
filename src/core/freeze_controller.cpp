#include "core/freeze_controller.h"

#include "util/error.h"

namespace apf::core {

FreezeController::FreezeController(std::size_t dim,
                                   FreezeControllerOptions options)
    : options_(options),
      period_(dim, 0),
      remaining_(dim, 0),
      mask_(dim, false) {
  APF_CHECK(dim > 0);
  APF_CHECK(options_.additive_step >= 1);
  APF_CHECK(options_.multiplicative_factor >= 2);
  APF_CHECK(options_.fixed_period >= 1);
}

std::uint32_t FreezeController::next_period(std::uint32_t current,
                                            bool stable) const {
  switch (options_.policy) {
    case ControlPolicy::kAimd:
      return stable ? current + options_.additive_step
                    : current / options_.multiplicative_factor;
    case ControlPolicy::kPureAdditive:
      return stable ? current + options_.additive_step
                    : (current > options_.additive_step
                           ? current - options_.additive_step
                           : 0);
    case ControlPolicy::kPureMultiplicative:
      return stable ? std::max<std::uint32_t>(
                          1, current * options_.multiplicative_factor)
                    : current / options_.multiplicative_factor;
    case ControlPolicy::kFixed:
      return stable ? options_.fixed_period : 0;
  }
  return 0;
}

void FreezeController::restore(std::span<const std::uint32_t> periods,
                               std::span<const std::uint32_t> remaining) {
  APF_CHECK(periods.size() == period_.size());
  APF_CHECK(remaining.size() == remaining_.size());
  period_.assign(periods.begin(), periods.end());
  remaining_.assign(remaining.begin(), remaining.end());
  for (std::size_t j = 0; j < remaining_.size(); ++j) {
    mask_.set(j, remaining_[j] > 0);
  }
}

}  // namespace apf::core
