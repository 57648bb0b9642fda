// LSTM layer with full backpropagation through time.
//
// A single LSTM layer maps (N, T, in) -> (N, T, hidden); the paper's KWS
// model stacks two of them followed by a classifier on the last time step.
// Gate order in the packed weight matrices is [input, forget, cell, output].
#pragma once

#include <vector>

#include "nn/module.h"
#include "util/rng.h"

namespace apf::nn {

class LSTM : public Module {
 public:
  LSTM(std::size_t input_size, std::size_t hidden_size, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamRef>& out) override;

  std::size_t hidden_size() const { return hidden_; }

 private:
  std::size_t input_size_;
  std::size_t hidden_;
  Parameter w_ih_;  // (4H, in)
  Parameter w_hh_;  // (4H, H)
  Parameter bias_;  // (4H)

  // Per-timestep caches for BPTT, filled only by a training-mode forward.
  struct StepCache {
    Tensor x;       // (N, in)
    Tensor h_prev;  // (N, H)
    Tensor c_prev;  // (N, H)
    Tensor gates;   // activated [i, f, g, o] (N, 4H)
    Tensor tanh_c;  // tanh(c_t) (N, H)
  };
  std::vector<StepCache> steps_;
  std::size_t batch_ = 0;
  std::size_t time_ = 0;
};

/// Slices the last time step: (N, T, H) -> (N, H); backward zero-pads.
class LastTimeStep : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Shape input_shape_;
};

}  // namespace apf::nn
