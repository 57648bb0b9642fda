#include "nn/batchnorm.h"

#include <cmath>

#include "util/error.h"

namespace apf::nn {

BatchNorm2d::BatchNorm2d(std::size_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(Tensor({channels}, 1.f)),
      beta_(Tensor({channels}, 0.f)),
      running_mean_({channels}),
      running_var_(Tensor({channels}, 1.f)) {
  APF_CHECK(channels > 0);
}

Tensor BatchNorm2d::forward(const Tensor& input) {
  APF_CHECK_MSG(input.rank() == 4 && input.dim(1) == channels_,
                "BatchNorm2d expects (N," << channels_ << ",H,W), got "
                                          << shape_str(input.shape()));
  input_shape_ = input.shape();
  const std::size_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::size_t plane = h * w;
  const std::size_t per_channel = n * plane;
  Tensor out(input.shape());
  if (training_) {
    float* xhat = cache_.hold<float>(input.numel() + channels_);
    float* invstd = xhat + input.numel();
    for (std::size_t c = 0; c < channels_; ++c) {
      double sum = 0.0, sq = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        const float* p = input.raw() + (s * channels_ + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          sum += p[i];
          sq += static_cast<double>(p[i]) * p[i];
        }
      }
      const double mean = sum / static_cast<double>(per_channel);
      const double var =
          sq / static_cast<double>(per_channel) - mean * mean;
      const double var_clamped = var < 0.0 ? 0.0 : var;
      const float inv =
          static_cast<float>(1.0 / std::sqrt(var_clamped + eps_));
      invstd[c] = inv;
      running_mean_[c] = (1.f - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(mean);
      running_var_[c] = (1.f - momentum_) * running_var_[c] +
                        momentum_ * static_cast<float>(var_clamped);
      const float g = gamma_.value[c], b = beta_.value[c];
      const float m = static_cast<float>(mean);
      for (std::size_t s = 0; s < n; ++s) {
        const float* p = input.raw() + (s * channels_ + c) * plane;
        float* xh = xhat + (s * channels_ + c) * plane;
        float* o = out.raw() + (s * channels_ + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          xh[i] = (p[i] - m) * inv;
          o[i] = g * xh[i] + b;
        }
      }
    }
  } else {
    // Eval mode holds no cache, so backward() after it throws.
    cache_.drop();
    for (std::size_t c = 0; c < channels_; ++c) {
      const float m = running_mean_[c];
      const float inv = 1.f / std::sqrt(running_var_[c] + eps_);
      const float g = gamma_.value[c], b = beta_.value[c];
      for (std::size_t s = 0; s < n; ++s) {
        const float* p = input.raw() + (s * channels_ + c) * plane;
        float* o = out.raw() + (s * channels_ + c) * plane;
        for (std::size_t i = 0; i < plane; ++i)
          o[i] = g * (p[i] - m) * inv + b;
      }
    }
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  APF_CHECK(training_);
  const std::span<const float> cache = cache_.get<const float>(
      "BatchNorm2d::backward needs a training-mode forward first");
  APF_CHECK(grad_output.shape() == input_shape_);
  const float* xhat = cache.data();
  const float* invstd = xhat + grad_output.numel();
  const std::size_t n = input_shape_[0], h = input_shape_[2],
                    w = input_shape_[3];
  const std::size_t plane = h * w;
  const auto m = static_cast<double>(n * plane);
  Tensor grad_input(input_shape_);
  for (std::size_t c = 0; c < channels_; ++c) {
    double sum_gy = 0.0, sum_gy_xhat = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      const float* gy = grad_output.raw() + (s * channels_ + c) * plane;
      const float* xh = xhat + (s * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        sum_gy += gy[i];
        sum_gy_xhat += static_cast<double>(gy[i]) * xh[i];
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_gy_xhat);
    beta_.grad[c] += static_cast<float>(sum_gy);
    const float g = gamma_.value[c];
    const float inv = invstd[c];
    const float mean_gy = static_cast<float>(sum_gy / m);
    const float mean_gy_xhat = static_cast<float>(sum_gy_xhat / m);
    for (std::size_t s = 0; s < n; ++s) {
      const float* gy = grad_output.raw() + (s * channels_ + c) * plane;
      const float* xh = xhat + (s * channels_ + c) * plane;
      float* gi = grad_input.raw() + (s * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        gi[i] = g * inv * (gy[i] - mean_gy - xh[i] * mean_gy_xhat);
      }
    }
  }
  return grad_input;
}

void BatchNorm2d::collect_params(const std::string& prefix,
                                 std::vector<ParamRef>& out) {
  out.push_back({prefix + "gamma", &gamma_});
  out.push_back({prefix + "beta", &beta_});
}

void BatchNorm2d::collect_buffers(const std::string& prefix,
                                  std::vector<BufferRef>& out) {
  out.push_back({prefix + "running_mean", &running_mean_});
  out.push_back({prefix + "running_var", &running_var_});
}

}  // namespace apf::nn
