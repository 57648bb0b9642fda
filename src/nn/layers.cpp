#include "nn/layers.h"

#include <cmath>

#include "tensor/activations.h"
#include "tensor/ops.h"
#include "util/error.h"

namespace apf::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_(Tensor({out_features, in_features})),
      bias_(Tensor({out_features})) {
  APF_CHECK(in_features > 0 && out_features > 0);
  const float bound =
      1.0f / std::sqrt(static_cast<float>(in_features));
  weight_.value = Tensor::uniform({out_features, in_features}, rng, -bound,
                                  bound);
  weight_.grad = Tensor({out_features, in_features});
  if (has_bias_) {
    bias_.value = Tensor::uniform({out_features}, rng, -bound, bound);
    bias_.grad = Tensor({out_features});
  }
}

Tensor Linear::forward(const Tensor& input) {
  APF_CHECK_MSG(input.rank() == 2 && input.dim(1) == in_features_,
                "Linear expects (N," << in_features_ << "), got "
                                     << shape_str(input.shape()));
  input_ = input;
  Tensor out = matmul_nt(input, weight_.value);  // (N, out)
  if (has_bias_) add_bias_rows(out, bias_.value);
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  APF_CHECK(grad_output.rank() == 2 && grad_output.dim(1) == out_features_);
  APF_CHECK(grad_output.dim(0) == input_.dim(0));
  // dW (out, in) += gradY^T (out, N) * X (N, in)
  weight_.grad += matmul_tn(grad_output, input_);
  if (has_bias_) {
    const std::size_t n = grad_output.dim(0);
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = grad_output.raw() + i * out_features_;
      for (std::size_t j = 0; j < out_features_; ++j)
        bias_.grad[j] += row[j];
    }
  }
  // dX (N, in) = gradY (N, out) * W (out, in)
  return matmul(grad_output, weight_.value);
}

void Linear::collect_params(const std::string& prefix,
                            std::vector<ParamRef>& out) {
  out.push_back({prefix + "weight", &weight_});
  if (has_bias_) out.push_back({prefix + "bias", &bias_});
}

Tensor ReLU::forward(const Tensor& input) {
  mask_ = Tensor(input.shape());
  Tensor out(input.shape());
  // Branch-free selects, so the loop vectorizes whatever the sign pattern.
  for (std::size_t i = 0; i < out.numel(); ++i) {
    const bool positive = input[i] > 0.f;
    out[i] = positive ? input[i] : 0.f;
    mask_[i] = positive ? 1.f : 0.f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  APF_CHECK(grad_output.same_shape(mask_));
  return hadamard(grad_output, mask_);
}

Tensor Tanh::forward(const Tensor& input) {
  output_ = input;
  apf::tanh(output_.data(), output_.data());
  return output_;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  APF_CHECK(grad_output.same_shape(output_));
  Tensor g = grad_output;
  for (std::size_t i = 0; i < g.numel(); ++i)
    g[i] *= 1.f - output_[i] * output_[i];
  return g;
}

Tensor Sigmoid::forward(const Tensor& input) {
  output_ = input;
  apf::sigmoid(output_.data(), output_.data());
  return output_;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  APF_CHECK(grad_output.same_shape(output_));
  Tensor g = grad_output;
  for (std::size_t i = 0; i < g.numel(); ++i)
    g[i] *= output_[i] * (1.f - output_[i]);
  return g;
}

Tensor Flatten::forward(const Tensor& input) {
  APF_CHECK(input.rank() >= 2);
  input_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  return input.reshaped({n, input.numel() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(input_shape_);
}

}  // namespace apf::nn
