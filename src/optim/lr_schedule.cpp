#include "optim/lr_schedule.h"

#include <cmath>

#include "util/error.h"

namespace apf::optim {

MultiplicativeDecayLr::MultiplicativeDecayLr(double initial, double factor,
                                             std::size_t every)
    : initial_(initial), factor_(factor), every_(every) {
  APF_CHECK(initial > 0.0);
  APF_CHECK(factor > 0.0 && factor <= 1.0);
  APF_CHECK(every > 0);
}

double MultiplicativeDecayLr::lr(std::size_t k) const {
  return initial_ * std::pow(factor_, static_cast<double>(k / every_));
}

}  // namespace apf::optim
