#include "nn/gru.h"

#include <cmath>
#include <span>

#include "nn/recurrent.h"
#include "tensor/activations.h"
#include "tensor/ops.h"
#include "util/error.h"

namespace apf::nn {

GRU::GRU(std::size_t input_size, std::size_t hidden_size, Rng& rng)
    : input_size_(input_size),
      hidden_(hidden_size),
      w_ih_(Tensor({3 * hidden_size, input_size})),
      w_hh_(Tensor({3 * hidden_size, hidden_size})),
      bias_ih_(Tensor({3 * hidden_size})),
      bias_hh_(Tensor({3 * hidden_size})) {
  APF_CHECK(input_size > 0 && hidden_size > 0);
  const float bound = 1.0f / std::sqrt(static_cast<float>(hidden_size));
  w_ih_.value = Tensor::uniform({3 * hidden_, input_size_}, rng, -bound, bound);
  w_ih_.grad = Tensor({3 * hidden_, input_size_});
  w_hh_.value = Tensor::uniform({3 * hidden_, hidden_}, rng, -bound, bound);
  w_hh_.grad = Tensor({3 * hidden_, hidden_});
  bias_ih_.value = Tensor::uniform({3 * hidden_}, rng, -bound, bound);
  bias_ih_.grad = Tensor({3 * hidden_});
  bias_hh_.value = Tensor::uniform({3 * hidden_}, rng, -bound, bound);
  bias_hh_.grad = Tensor({3 * hidden_});
}

Tensor GRU::forward(const Tensor& input) {
  APF_CHECK_MSG(input.rank() == 3 && input.dim(2) == input_size_,
                "GRU expects (N,T," << input_size_ << "), got "
                                    << shape_str(input.shape()));
  batch_ = input.dim(0);
  time_ = input.dim(1);
  // Evaluation keeps no BPTT caches; backward then refuses to run.
  const bool keep_caches = training();
  steps_.clear();
  if (keep_caches) steps_.reserve(time_);
  Tensor h({batch_, hidden_});
  Tensor out({batch_, time_, hidden_});
  // The weights change only between forwards: pack each once for all steps.
  const NtPacked w_ih(w_ih_.value);
  const NtPacked w_hh(w_hh_.value);
  for (std::size_t t = 0; t < time_; ++t) {
    // gi (N, 3H) = x W_ih^T + b_ih, activated in place to [r, z, n] below;
    // x is step t of the input, read in place.
    Tensor gi({batch_, 3 * hidden_});
    matmul_nt(input.raw() + t * input_size_, time_ * input_size_, batch_,
              w_ih, gi.raw(), false);
    add_bias_rows(gi, bias_ih_.value);
    Tensor gh({batch_, 3 * hidden_});
    matmul_nt(h.raw(), hidden_, batch_, w_hh, gh.raw(), false);
    add_bias_rows(gh, bias_hh_.value);
    StepCache cache;
    if (keep_caches) cache.h_prev = h;
    for (std::size_t s = 0; s < batch_; ++s) {
      float* girow = gi.raw() + s * 3 * hidden_;
      const float* ghrow = gh.raw() + s * 3 * hidden_;
      for (std::size_t j = 0; j < 2 * hidden_; ++j) girow[j] += ghrow[j];
      const std::span<float> rz_gates(girow, 2 * hidden_);
      apf::sigmoid(rz_gates, rz_gates);
      for (std::size_t j = 0; j < hidden_; ++j)
        girow[2 * hidden_ + j] += girow[j] * ghrow[2 * hidden_ + j];
      const std::span<float> n_gate(girow + 2 * hidden_, hidden_);
      apf::tanh(n_gate, n_gate);
      for (std::size_t j = 0; j < hidden_; ++j) {
        const std::size_t idx = s * hidden_ + j;
        const float z = girow[hidden_ + j];
        const float hv = (1.f - z) * n_gate[j] + z * h[idx];
        h[idx] = hv;
        out[(s * time_ + t) * hidden_ + j] = hv;
      }
    }
    if (keep_caches) {
      cache.x = time_slice(input, t);
      cache.gates = std::move(gi);
      cache.gh = std::move(gh);
      steps_.push_back(std::move(cache));
    }
  }
  return out;
}

Tensor GRU::backward(const Tensor& grad_output) {
  APF_CHECK_MSG(steps_.size() == time_,
                "GRU::backward needs a training-mode forward first");
  APF_CHECK(grad_output.rank() == 3 && grad_output.dim(0) == batch_ &&
            grad_output.dim(1) == time_ && grad_output.dim(2) == hidden_);
  Tensor grad_input({batch_, time_, input_size_});
  Tensor dh({batch_, hidden_});
  for (std::size_t t = time_; t-- > 0;) {
    const StepCache& cache = steps_[t];
    Tensor dgates_ih({batch_, 3 * hidden_});
    Tensor dgates_hh({batch_, 3 * hidden_});
    Tensor dh_prev_direct({batch_, hidden_});
    for (std::size_t s = 0; s < batch_; ++s) {
      const float* act = cache.gates.raw() + s * 3 * hidden_;
      const float* ghrow = cache.gh.raw() + s * 3 * hidden_;
      for (std::size_t j = 0; j < hidden_; ++j) {
        const std::size_t idx = s * hidden_ + j;
        const float dh_total =
            grad_output[(s * time_ + t) * hidden_ + j] + dh[idx];
        const float r = act[j];
        const float z = act[hidden_ + j];
        const float n = act[2 * hidden_ + j];
        const float hn_lin = ghrow[2 * hidden_ + j];
        const float h_prev = cache.h_prev[idx];
        const float dz = dh_total * (h_prev - n);
        const float dn = dh_total * (1.f - z);
        dh_prev_direct[idx] = dh_total * z;
        const float dn_pre = dn * (1.f - n * n);
        const float dr = dn_pre * hn_lin;
        const float d_hn_lin = dn_pre * r;
        const float dr_pre = dr * r * (1.f - r);
        const float dz_pre = dz * z * (1.f - z);
        float* ihrow = dgates_ih.raw() + s * 3 * hidden_;
        float* hhrow = dgates_hh.raw() + s * 3 * hidden_;
        ihrow[j] = dr_pre;
        ihrow[hidden_ + j] = dz_pre;
        ihrow[2 * hidden_ + j] = dn_pre;
        hhrow[j] = dr_pre;
        hhrow[hidden_ + j] = dz_pre;
        hhrow[2 * hidden_ + j] = d_hn_lin;
      }
    }
    w_ih_.grad += matmul_tn(dgates_ih, cache.x);
    w_hh_.grad += matmul_tn(dgates_hh, cache.h_prev);
    for (std::size_t s = 0; s < batch_; ++s) {
      const float* ihrow = dgates_ih.raw() + s * 3 * hidden_;
      const float* hhrow = dgates_hh.raw() + s * 3 * hidden_;
      for (std::size_t j = 0; j < 3 * hidden_; ++j) {
        bias_ih_.grad[j] += ihrow[j];
        bias_hh_.grad[j] += hhrow[j];
      }
    }
    Tensor dx = matmul(dgates_ih, w_ih_.value);
    for (std::size_t s = 0; s < batch_; ++s) {
      std::copy(dx.raw() + s * input_size_, dx.raw() + (s + 1) * input_size_,
                grad_input.raw() + (s * time_ + t) * input_size_);
    }
    dh = matmul(dgates_hh, w_hh_.value);
    dh += dh_prev_direct;
  }
  return grad_input;
}

void GRU::collect_params(const std::string& prefix,
                         std::vector<ParamRef>& out) {
  out.push_back({prefix + "w_ih", &w_ih_});
  out.push_back({prefix + "w_hh", &w_hh_});
  out.push_back({prefix + "bias_ih", &bias_ih_});
  out.push_back({prefix + "bias_hh", &bias_hh_});
}

}  // namespace apf::nn
