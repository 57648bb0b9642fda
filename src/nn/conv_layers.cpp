#include "nn/conv_layers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "util/error.h"

namespace apf::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, Rng& rng, std::size_t stride,
               std::size_t pad, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_(Tensor({out_channels, in_channels * kernel * kernel})),
      bias_(Tensor({out_channels})) {
  APF_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
  const std::size_t fan_in = in_channels * kernel * kernel;
  const float bound = 1.0f / std::sqrt(static_cast<float>(fan_in));
  weight_.value =
      Tensor::uniform({out_channels, fan_in}, rng, -bound, bound);
  weight_.grad = Tensor({out_channels, fan_in});
  if (has_bias_) {
    bias_.value = Tensor::uniform({out_channels}, rng, -bound, bound);
    bias_.grad = Tensor({out_channels});
  }
}

Tensor Conv2d::forward(const Tensor& input) {
  APF_CHECK_MSG(input.rank() == 4 && input.dim(1) == in_channels_,
                "Conv2d expects (N," << in_channels_ << ",H,W), got "
                                     << shape_str(input.shape()));
  const ConvGeom geom{in_channels_, input.dim(2), input.dim(3), kernel_,
                      stride_, pad_};
  if (!(geom == taps_.geom)) taps_ = ConvTaps(geom);
  const std::size_t n = input.dim(0);
  // A training forward pads into its lane buffer, which backward() reads;
  // an eval forward pads into a call-local copy and holds nothing.
  const std::size_t padded_size =
      n * in_channels_ * taps_.padded_h * taps_.padded_w;
  std::unique_ptr<float[]> local;
  float* padded = nullptr;
  if (training()) {
    padded = padded_.hold<float>(padded_size);
  } else {
    padded_.drop();
    local = std::make_unique_for_overwrite<float[]>(padded_size);
    padded = local.get();
  }
  conv2d_pad(input.raw(), n, taps_, padded);
  Tensor out({n, out_channels_, geom.out_h(), geom.out_w()});
  conv2d_forward(weight_.value.raw(), out_channels_,
                 has_bias_ ? bias_.value.raw() : nullptr, padded, n, taps_,
                 out.raw());
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const std::span<const float> padded = padded_.get<const float>(
      "Conv2d::backward needs a training-mode forward first");
  const ConvGeom& geom = taps_.geom;
  const std::size_t plane = geom.out_h() * geom.out_w();
  APF_CHECK(grad_output.rank() == 4 && grad_output.dim(1) == out_channels_ &&
            grad_output.dim(2) == geom.out_h() &&
            grad_output.dim(3) == geom.out_w());
  const std::size_t n = grad_output.dim(0);
  APF_CHECK(padded.size() ==
            n * in_channels_ * taps_.padded_h * taps_.padded_w);
  // dW += gy_s * P_s^T per sample, each a double dot product rounded to
  // float and folded in sample order; the bias gradient likewise.
  conv2d_weight_grad(grad_output.raw(), out_channels_, padded.data(), n,
                     taps_, weight_.grad.raw());
  if (has_bias_) {
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t c = 0; c < out_channels_; ++c) {
        const float* row = grad_output.raw() + (s * out_channels_ + c) * plane;
        double acc = 0.0;
        for (std::size_t i = 0; i < plane; ++i) acc += row[i];
        bias_.grad[c] += static_cast<float>(acc);
      }
    }
  }
  Tensor grad_input({n, in_channels_, geom.in_h, geom.in_w});
  conv2d_input_grad(weight_.value.raw(), out_channels_, grad_output.raw(), n,
                    taps_, grad_input.raw());
  return grad_input;
}

void Conv2d::collect_params(const std::string& prefix,
                            std::vector<ParamRef>& out) {
  out.push_back({prefix + "weight", &weight_});
  if (has_bias_) out.push_back({prefix + "bias", &bias_});
}

MaxPool2d::MaxPool2d(std::size_t kernel) : kernel_(kernel) {
  APF_CHECK(kernel > 0);
}

Tensor MaxPool2d::forward(const Tensor& input) {
  APF_CHECK(input.rank() == 4);
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  APF_CHECK_MSG(h % kernel_ == 0 && w % kernel_ == 0,
                "MaxPool2d " << kernel_ << " on " << h << "x" << w);
  const std::size_t oh = h / kernel_, ow = w / kernel_;
  input_shape_ = input.shape();
  Tensor out({n, c, oh, ow});
  // Eval mode records no argmax: backward() after it throws.
  std::size_t* argmax = nullptr;
  if (training()) {
    argmax = argmax_.hold<std::size_t>(out.numel());
  } else {
    argmax_.drop();
  }
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = input.raw() + (s * c + ch) * h * w;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::size_t idx =
                  (y * kernel_ + ky) * w + (x * kernel_ + kx);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          const std::size_t out_idx = ((s * c + ch) * oh + y) * ow + x;
          out[out_idx] = best;
          if (argmax != nullptr) {
            argmax[out_idx] = (s * c + ch) * h * w + best_idx;
          }
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  const std::span<const std::size_t> argmax = argmax_.get<const std::size_t>(
      "MaxPool2d::backward needs a training-mode forward first");
  APF_CHECK(grad_output.numel() == argmax.size());
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[argmax[i]] += grad_output[i];
  }
  return grad_input;
}

Tensor GlobalAvgPool::forward(const Tensor& input) {
  APF_CHECK(input.rank() == 4);
  input_shape_ = input.shape();
  const std::size_t n = input.dim(0), c = input.dim(1),
                    hw = input.dim(2) * input.dim(3);
  Tensor out({n, c});
  const float inv = 1.f / static_cast<float>(hw);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = input.raw() + (s * c + ch) * hw;
      double acc = 0.0;
      for (std::size_t i = 0; i < hw; ++i) acc += plane[i];
      out[s * c + ch] = static_cast<float>(acc) * inv;
    }
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  APF_CHECK_MSG(input_shape_.size() == 4,
                "GlobalAvgPool::backward needs a forward first");
  const std::size_t n = input_shape_[0], c = input_shape_[1],
                    hw = input_shape_[2] * input_shape_[3];
  APF_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == n &&
            grad_output.dim(1) == c);
  Tensor grad_input(input_shape_);
  const float inv = 1.f / static_cast<float>(hw);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = grad_output[s * c + ch] * inv;
      float* plane = grad_input.raw() + (s * c + ch) * hw;
      for (std::size_t i = 0; i < hw; ++i) plane[i] = g;
    }
  }
  return grad_input;
}

}  // namespace apf::nn
