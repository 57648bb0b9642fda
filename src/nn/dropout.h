// Inverted dropout (Srivastava et al.; paper refs [24], [52]).
//
// Dropout motivates APF#: randomly disabling coordinates regularizes
// training. In train mode each activation is zeroed with probability p and
// the survivors scaled by 1/(1-p); eval mode is the identity.
#pragma once

#include "nn/lane_store.h"
#include "nn/module.h"
#include "util/rng.h"

namespace apf::nn {

class Dropout : public Module {
 public:
  /// p is the drop probability in [0, 1). The layer owns its RNG so runs
  /// are reproducible given the construction seed.
  explicit Dropout(double p, std::uint64_t seed = 0xD0D0ULL);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  double p_;
  Rng rng_;
  LaneBuffer mask_;  // 0 or 1/(1-p) per element; none when the identity
};

}  // namespace apf::nn
