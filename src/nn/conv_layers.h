// Convolution and pooling layers over NCHW tensors.
#pragma once

#include <vector>

#include "nn/lane_store.h"
#include "nn/module.h"
#include "tensor/conv.h"
#include "util/rng.h"

namespace apf::nn {

/// 2-D convolution (square kernel) over the whole minibatch as implicit
/// GEMMs (tensor/conv.h): the forward, the per-sample dW fold and the input
/// gradient pack their panels straight from the images or the output
/// gradient, and no patch matrix is built. A training forward keeps a
/// zero-padded copy of its input for the dW fold in a LaneBuffer; eval mode
/// pads into a call-local copy, and backward() after it throws.
class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         Rng& rng, std::size_t stride = 1, std::size_t pad = 0,
         bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamRef>& out) override;

 private:
  std::size_t in_channels_, out_channels_, kernel_, stride_, pad_;
  bool has_bias_;
  Parameter weight_;  // (out_c, in_c * k * k)
  Parameter bias_;    // (out_c)
  ConvTaps taps_;      // of the last input shape
  LaneBuffer padded_;  // a training forward's input, padded
};

/// Max pooling with square window; window == stride (non-overlapping).
class MaxPool2d : public Module {
 public:
  explicit MaxPool2d(std::size_t kernel);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  std::size_t kernel_;
  Shape input_shape_;
  LaneBuffer argmax_;  // a training forward's flat input index per output
};

/// Global average pooling: (N, C, H, W) -> (N, C).
class GlobalAvgPool : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Shape input_shape_;
};

}  // namespace apf::nn
