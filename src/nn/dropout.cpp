#include "nn/dropout.h"

#include "util/error.h"

namespace apf::nn {

Dropout::Dropout(double p, std::uint64_t seed) : p_(p), rng_(seed) {
  APF_CHECK(p >= 0.0 && p < 1.0);
}

Tensor Dropout::forward(const Tensor& input) {
  if (!training_ || p_ == 0.0) {
    mask_.drop();  // marks "identity" for backward
    return input;
  }
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  float* mask = mask_.hold<float>(input.numel());
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (rng_.bernoulli(p_)) {
      out[i] = 0.f;
      mask[i] = 0.f;
    } else {
      mask[i] = keep_scale;
      out[i] *= keep_scale;
    }
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (!mask_.held()) return grad_output;  // eval / p == 0
  return hadamard(grad_output,
                  mask_.get<const float>(
                      "Dropout::backward needs a training-mode forward first"));
}

}  // namespace apf::nn
