// Batch normalization over NCHW feature maps (per-channel statistics).
#pragma once

#include "nn/lane_store.h"
#include "nn/module.h"

namespace apf::nn {

/// BatchNorm2d: trainable per-channel scale/shift with running statistics
/// used at evaluation time. Running stats are exposed as buffers so the FL
/// runtime can synchronize them across clients (they are not trainable and
/// thus not subject to APF freezing).
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::size_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamRef>& out) override;
  void collect_buffers(const std::string& prefix,
                       std::vector<BufferRef>& out) override;

 private:
  std::size_t channels_;
  float eps_;
  float momentum_;
  Parameter gamma_;  // scale, init 1
  Parameter beta_;   // shift, init 0
  Tensor running_mean_;
  Tensor running_var_;
  // A training forward's xhat (the input's shape) and 1/std per channel.
  LaneBuffer cache_;
  Shape input_shape_;
};

}  // namespace apf::nn
