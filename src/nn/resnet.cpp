#include "nn/resnet.h"

#include "util/error.h"

namespace apf::nn {

BasicBlock::BasicBlock(std::size_t in_channels, std::size_t out_channels,
                       std::size_t stride, Rng& rng)
    : conv1_(in_channels, out_channels, 3, rng, stride, 1, /*bias=*/false),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, 3, rng, 1, 1, /*bias=*/false),
      bn2_(out_channels),
      has_projection_(stride != 1 || in_channels != out_channels) {
  if (has_projection_) {
    proj_conv_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, rng,
                                          stride, 0, /*bias=*/false);
    proj_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
}

Tensor BasicBlock::forward(const Tensor& input) {
  Tensor main = bn2_.forward(
      conv2_.forward(relu1_.forward(bn1_.forward(conv1_.forward(input)))));
  Tensor shortcut =
      has_projection_ ? proj_bn_->forward(proj_conv_->forward(input)) : input;
  APF_CHECK(main.same_shape(shortcut));
  Tensor out = main;
  out += shortcut;
  if (!training()) {
    relu_mask_.drop();
    for (std::size_t i = 0; i < out.numel(); ++i)
      out[i] = out[i] > 0.f ? out[i] : 0.f;
    return out;
  }
  float* mask = relu_mask_.hold<float>(out.numel());
  for (std::size_t i = 0; i < out.numel(); ++i) {
    const bool positive = out[i] > 0.f;
    mask[i] = positive ? 1.f : 0.f;
    out[i] = positive ? out[i] : 0.f;
  }
  return out;
}

Tensor BasicBlock::backward(const Tensor& grad_output) {
  Tensor g = hadamard(grad_output,
                      relu_mask_.get<const float>(
                          "BasicBlock::backward needs a training-mode forward "
                          "first"));
  // Gradient splits into main branch and shortcut.
  Tensor grad_main = conv1_.backward(
      bn1_.backward(relu1_.backward(conv2_.backward(bn2_.backward(g)))));
  if (has_projection_) {
    Tensor grad_short = proj_conv_->backward(proj_bn_->backward(g));
    grad_main += grad_short;
  } else {
    grad_main += g;
  }
  return grad_main;
}

void BasicBlock::collect_params(const std::string& prefix,
                                std::vector<ParamRef>& out) {
  conv1_.collect_params(prefix + "conv1.", out);
  bn1_.collect_params(prefix + "bn1.", out);
  conv2_.collect_params(prefix + "conv2.", out);
  bn2_.collect_params(prefix + "bn2.", out);
  if (has_projection_) {
    proj_conv_->collect_params(prefix + "proj_conv.", out);
    proj_bn_->collect_params(prefix + "proj_bn.", out);
  }
}

void BasicBlock::collect_buffers(const std::string& prefix,
                                 std::vector<BufferRef>& out) {
  bn1_.collect_buffers(prefix + "bn1.", out);
  bn2_.collect_buffers(prefix + "bn2.", out);
  if (has_projection_) proj_bn_->collect_buffers(prefix + "proj_bn.", out);
}

void BasicBlock::set_training(bool training) {
  Module::set_training(training);
  conv1_.set_training(training);
  bn1_.set_training(training);
  relu1_.set_training(training);
  conv2_.set_training(training);
  bn2_.set_training(training);
  if (has_projection_) {
    proj_conv_->set_training(training);
    proj_bn_->set_training(training);
  }
}

}  // namespace apf::nn
