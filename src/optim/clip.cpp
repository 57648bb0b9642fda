#include "optim/clip.h"

#include <cmath>

#include "util/error.h"

namespace apf::optim {

double clip_grad_norm(nn::Module& module, double max_norm) {
  APF_CHECK(max_norm > 0.0);
  double norm_sq = 0.0;
  const auto params = module.parameters();
  for (const auto& p : params) {
    for (std::size_t i = 0; i < p.param->numel(); ++i) {
      const double g = p.param->grad[i];
      norm_sq += g * g;
    }
  }
  const double norm = std::sqrt(norm_sq);
  if (norm > max_norm && norm > 0.0) {
    const auto scale = static_cast<float>(max_norm / norm);
    for (const auto& p : params) {
      for (std::size_t i = 0; i < p.param->numel(); ++i) {
        p.param->grad[i] *= scale;
      }
    }
  }
  return norm;
}

}  // namespace apf::optim
