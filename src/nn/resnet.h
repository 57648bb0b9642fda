// Residual basic block (ResNet-v1 style, CIFAR variant).
#pragma once

#include <memory>

#include "nn/batchnorm.h"
#include "nn/conv_layers.h"
#include "nn/lane_store.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace apf::nn {

/// conv3x3(stride)-BN-ReLU-conv3x3-BN plus identity/projection shortcut,
/// followed by ReLU. The projection (1x1 conv + BN) is used when stride > 1
/// or channel counts differ, as in the original ResNet.
class BasicBlock : public Module {
 public:
  BasicBlock(std::size_t in_channels, std::size_t out_channels,
             std::size_t stride, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamRef>& out) override;
  void collect_buffers(const std::string& prefix,
                       std::vector<BufferRef>& out) override;
  void set_training(bool training) override;

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  bool has_projection_;
  std::unique_ptr<Conv2d> proj_conv_;
  std::unique_ptr<BatchNorm2d> proj_bn_;
  LaneBuffer relu_mask_;  // a training forward's final ReLU mask
};

}  // namespace apf::nn
