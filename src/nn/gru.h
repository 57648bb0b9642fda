// GRU layer with full backpropagation through time.
//
// Complements the LSTM for sequence workloads (same (N, T, in) -> (N, T, H)
// contract). Gate order in the packed weights is [reset, update, new], with
// separate input-side and hidden-side biases (the hidden-side new-gate bias
// sits inside the reset product, as in cuDNN/PyTorch):
//   r = sigmoid(W_ir x + b_ir + W_hr h + b_hr)
//   z = sigmoid(W_iz x + b_iz + W_hz h + b_hz)
//   n = tanh(W_in x + b_in + r * (W_hn h + b_hn))
//   h' = (1 - z) * n + z * h
#pragma once

#include "nn/lane_store.h"
#include "nn/module.h"
#include "util/rng.h"

namespace apf::nn {

class GRU : public Module {
 public:
  GRU(std::size_t input_size, std::size_t hidden_size, Rng& rng);

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
  Parameter w_ih_;     // (3H, in)
  Parameter w_hh_;     // (3H, H)
  Parameter bias_ih_;  // (3H)
  Parameter bias_hh_;  // (3H)

  // The state of every step in one buffer (laid out in gru.cpp). A
  // training-mode forward holds what BPTT reads in a LaneBuffer: a copy of
  // the input (N, T, in); h_t for t = 0..T, each (N, H), with h_0 = 0; each
  // step's activated gates, gate-major (3, N, H) in [r, z, n] order; and
  // hn_lin = W_hn h + b_hn (N, H). An eval-mode forward keeps one step of
  // each in a call-local buffer and updates h in place.
  LaneBuffer cache_;
  std::size_t batch_ = 0;
  std::size_t time_ = 0;
};

}  // namespace apf::nn
