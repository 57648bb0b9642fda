// LSTM layer with full backpropagation through time.
//
// A single LSTM layer maps (N, T, in) -> (N, T, hidden); the paper's KWS
// model stacks two of them followed by a classifier on the last time step.
// Gate order in the packed weight matrices is [input, forget, cell, output].
#pragma once

#include "nn/lane_store.h"
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
  // Views of one forward's buffers (see forward()).
  struct Steps;
  std::size_t steps_size(bool training) const;
  Steps steps(float* base, bool training) const;

  std::size_t input_size_;
  std::size_t hidden_;
  Parameter w_ih_;  // (4H, in)
  Parameter w_hh_;  // (4H, H)
  Parameter bias_;  // (4H)

  // The state of every step in one buffer (laid out in lstm.cpp). A
  // training-mode forward holds what BPTT reads in a LaneBuffer: a copy of
  // the input (N, T, in); h_t and c_t for t = 0..T, each (N, H), with
  // h_0 = c_0 = 0; each step's activated gates, gate-major (4, N, H) in
  // [i, f, g, o] order; and tanh(c_t) (N, H). An eval-mode forward keeps
  // one step of each in a call-local buffer and updates h and c in place.
  LaneBuffer cache_;
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
