// Dense and activation layers.
#pragma once

#include "nn/lane_store.h"
#include "nn/module.h"
#include "util/rng.h"

namespace apf::nn {

/// Fully connected layer: y = x W^T + b for x of shape (N, in).
class Linear : public Module {
 public:
  /// Kaiming-uniform initialization (fan_in) like PyTorch's default.
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamRef>& out) override;

  Parameter& weight() { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  bool has_bias_;
  Parameter weight_;  // (out, in)
  Parameter bias_;    // (out)
  LaneBuffer input_;  // a training forward's input (N, in)
};

/// Rectified linear unit.
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  LaneBuffer mask_;  // a training forward's 1 where input > 0, else 0
};

/// Reshapes (N, ...) to (N, prod(...)); inverse on backward.
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Shape input_shape_;
};

}  // namespace apf::nn
