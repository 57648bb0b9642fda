#include "nn/lstm.h"

#include <cmath>
#include <span>
#include <vector>

#include "nn/recurrent.h"
#include "tensor/activations.h"
#include "tensor/ops.h"
#include "util/error.h"

namespace apf::nn {

LSTM::LSTM(std::size_t input_size, std::size_t hidden_size, Rng& rng)
    : input_size_(input_size),
      hidden_(hidden_size),
      w_ih_(Tensor({4 * hidden_size, input_size})),
      w_hh_(Tensor({4 * hidden_size, hidden_size})),
      bias_(Tensor({4 * hidden_size})) {
  APF_CHECK(input_size > 0 && hidden_size > 0);
  const float bound = 1.0f / std::sqrt(static_cast<float>(hidden_size));
  w_ih_.value = Tensor::uniform({4 * hidden_, input_size_}, rng, -bound, bound);
  w_ih_.grad = Tensor({4 * hidden_, input_size_});
  w_hh_.value = Tensor::uniform({4 * hidden_, hidden_}, rng, -bound, bound);
  w_hh_.grad = Tensor({4 * hidden_, hidden_});
  bias_.value = Tensor::uniform({4 * hidden_}, rng, -bound, bound);
  bias_.grad = Tensor({4 * hidden_});
}

Tensor LSTM::forward(const Tensor& input) {
  APF_CHECK_MSG(input.rank() == 3 && input.dim(2) == input_size_,
                "LSTM expects (N,T," << input_size_ << "), got "
                                     << shape_str(input.shape()));
  batch_ = input.dim(0);
  time_ = input.dim(1);
  // Evaluation keeps no BPTT caches; backward then refuses to run.
  const bool keep_caches = training();
  steps_.clear();
  if (keep_caches) steps_.reserve(time_);
  Tensor h({batch_, hidden_});
  Tensor c({batch_, hidden_});
  Tensor out({batch_, time_, hidden_});
  // tanh(c) of one row when no cache keeps it.
  std::vector<float> tanh_row(keep_caches ? 0 : hidden_);
  // The weights change only between forwards: pack each once for all steps.
  const NtPacked w_ih(w_ih_.value);
  const NtPacked w_hh(w_hh_.value);
  for (std::size_t t = 0; t < time_; ++t) {
    // gates (N, 4H) = x W_ih^T + h W_hh^T + b, activated in place below;
    // x is step t of the input, read in place. The h fold runs at t = 0 too,
    // where h is zero: adding +0 turns a -0 gate into +0.
    Tensor gates({batch_, 4 * hidden_});
    matmul_nt(input.raw() + t * input_size_, time_ * input_size_, batch_,
              w_ih, gates.raw(), false);
    matmul_nt(h.raw(), hidden_, batch_, w_hh, gates.raw(), true);
    add_bias_rows(gates, bias_.value);
    StepCache cache;
    if (keep_caches) {
      cache.h_prev = h;
      cache.c_prev = c;
      cache.tanh_c = Tensor({batch_, hidden_});
    }
    for (std::size_t s = 0; s < batch_; ++s) {
      float* grow = gates.raw() + s * 4 * hidden_;
      const std::span<float> if_gates(grow, 2 * hidden_);
      const std::span<float> g_gate(grow + 2 * hidden_, hidden_);
      const std::span<float> o_gate(grow + 3 * hidden_, hidden_);
      apf::sigmoid(if_gates, if_gates);
      apf::tanh(g_gate, g_gate);
      apf::sigmoid(o_gate, o_gate);
      float* crow = c.raw() + s * hidden_;
      for (std::size_t j = 0; j < hidden_; ++j) {
        const float iv = grow[j];
        const float fv = grow[hidden_ + j];
        const float gv = grow[2 * hidden_ + j];
        crow[j] = fv * crow[j] + iv * gv;
      }
      float* tc = keep_caches ? cache.tanh_c.raw() + s * hidden_
                              : tanh_row.data();
      apf::tanh(std::span<const float>(crow, hidden_),
                std::span<float>(tc, hidden_));
      for (std::size_t j = 0; j < hidden_; ++j) {
        const float hv = grow[3 * hidden_ + j] * tc[j];
        h[s * hidden_ + j] = hv;
        out[(s * time_ + t) * hidden_ + j] = hv;
      }
    }
    if (keep_caches) {
      cache.x = time_slice(input, t);
      cache.gates = std::move(gates);
      steps_.push_back(std::move(cache));
    }
  }
  return out;
}

Tensor LSTM::backward(const Tensor& grad_output) {
  APF_CHECK_MSG(steps_.size() == time_,
                "LSTM::backward needs a training-mode forward first");
  APF_CHECK(grad_output.rank() == 3 && grad_output.dim(0) == batch_ &&
            grad_output.dim(1) == time_ && grad_output.dim(2) == hidden_);
  Tensor grad_input({batch_, time_, input_size_});
  Tensor dh({batch_, hidden_});  // gradient flowing to h_{t} from t+1
  Tensor dc({batch_, hidden_});
  for (std::size_t t = time_; t-- > 0;) {
    const StepCache& cache = steps_[t];
    // Pre-activation gate gradients, packed as (N, 4H).
    Tensor dgates({batch_, 4 * hidden_});
    for (std::size_t s = 0; s < batch_; ++s) {
      const float* act = cache.gates.raw() + s * 4 * hidden_;
      for (std::size_t j = 0; j < hidden_; ++j) {
        const std::size_t idx = s * hidden_ + j;
        const float dh_total =
            grad_output[(s * time_ + t) * hidden_ + j] + dh[idx];
        const float o = act[3 * hidden_ + j];
        const float tc = cache.tanh_c[idx];
        const float dct = dh_total * o * (1.f - tc * tc) + dc[idx];
        const float i = act[j];
        const float f = act[hidden_ + j];
        const float g = act[2 * hidden_ + j];
        const float di = dct * g;
        const float df = dct * cache.c_prev[idx];
        const float dg = dct * i;
        const float do_ = dh_total * tc;
        float* grow = dgates.raw() + s * 4 * hidden_;
        grow[j] = di * i * (1.f - i);
        grow[hidden_ + j] = df * f * (1.f - f);
        grow[2 * hidden_ + j] = dg * (1.f - g * g);
        grow[3 * hidden_ + j] = do_ * o * (1.f - o);
        dc[idx] = dct * f;
      }
    }
    // Parameter gradients.
    w_ih_.grad += matmul_tn(dgates, cache.x);
    w_hh_.grad += matmul_tn(dgates, cache.h_prev);
    for (std::size_t s = 0; s < batch_; ++s) {
      const float* grow = dgates.raw() + s * 4 * hidden_;
      for (std::size_t j = 0; j < 4 * hidden_; ++j) bias_.grad[j] += grow[j];
    }
    // Input and recurrent gradients.
    Tensor dx = matmul(dgates, w_ih_.value);  // (N, in)
    for (std::size_t s = 0; s < batch_; ++s) {
      std::copy(dx.raw() + s * input_size_, dx.raw() + (s + 1) * input_size_,
                grad_input.raw() + (s * time_ + t) * input_size_);
    }
    dh = matmul(dgates, w_hh_.value);  // (N, H)
  }
  return grad_input;
}

void LSTM::collect_params(const std::string& prefix,
                          std::vector<ParamRef>& out) {
  out.push_back({prefix + "w_ih", &w_ih_});
  out.push_back({prefix + "w_hh", &w_hh_});
  out.push_back({prefix + "bias", &bias_});
}

Tensor LastTimeStep::forward(const Tensor& input) {
  APF_CHECK_MSG(input.rank() == 3 && input.dim(1) > 0,
                "LastTimeStep expects (N,T,H) with T > 0, got "
                    << shape_str(input.shape()));
  input_shape_ = input.shape();
  const std::size_t n = input.dim(0), t = input.dim(1), h = input.dim(2);
  Tensor out({n, h});
  for (std::size_t s = 0; s < n; ++s) {
    const float* src = input.raw() + (s * t + (t - 1)) * h;
    std::copy(src, src + h, out.raw() + s * h);
  }
  return out;
}

Tensor LastTimeStep::backward(const Tensor& grad_output) {
  APF_CHECK_MSG(input_shape_.size() == 3,
                "LastTimeStep::backward needs a forward first");
  const std::size_t n = input_shape_[0], t = input_shape_[1],
                    h = input_shape_[2];
  APF_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == n &&
            grad_output.dim(1) == h);
  Tensor grad_input(input_shape_);
  for (std::size_t s = 0; s < n; ++s) {
    std::copy(grad_output.raw() + s * h, grad_output.raw() + (s + 1) * h,
              grad_input.raw() + (s * t + (t - 1)) * h);
  }
  return grad_input;
}

}  // namespace apf::nn
