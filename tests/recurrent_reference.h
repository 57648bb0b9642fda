// The per-step definition of the recurrent layers that LSTM and GRU must
// reproduce bit for bit: one (N, gates * H) Tensor of gates per step,
// activated row by row, every product a Tensor-returning matmul, matmul_tn
// or matmul_nt, and each weight gradient a `+=` of one temporary per step.
// Tests only; the layers run whole-batch gate blocks over packed weights
// and fold their gradients in place.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "tensor/activations.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace apf::test {

/// Extracts time slice t of a (N, T, F) tensor as (N, F).
inline Tensor time_slice(const Tensor& seq, std::size_t t) {
  const std::size_t n = seq.dim(0), time = seq.dim(1), f = seq.dim(2);
  Tensor out({n, f});
  for (std::size_t s = 0; s < n; ++s) {
    const float* src = seq.raw() + (s * time + t) * f;
    std::copy(src, src + f, out.raw() + s * f);
  }
  return out;
}

/// Writes the (N, F) step into time slice t of a (N, T, F) tensor.
inline void set_time_slice(Tensor& seq, std::size_t t, const Tensor& step) {
  const std::size_t n = seq.dim(0), time = seq.dim(1), f = seq.dim(2);
  for (std::size_t s = 0; s < n; ++s) {
    std::copy(step.raw() + s * f, step.raw() + (s + 1) * f,
              seq.raw() + (s * time + t) * f);
  }
}

/// One forward and backward of a layer: its output, the input gradient and
/// the parameter gradients, which the backward adds to the ones passed in
/// (in the order the layer's collect_params lists them).
struct RecurrentPass {
  Tensor out;
  Tensor grad_input;
  std::vector<Tensor> grads;
};

/// LSTM with weights w_ih (4H, in), w_hh (4H, H) and bias (4H), gates
/// [i, f, g, o]; grads holds the w_ih, w_hh and bias gradients.
inline RecurrentPass lstm_reference(const Tensor& w_ih, const Tensor& w_hh,
                                    const Tensor& bias, const Tensor& input,
                                    const Tensor& grad_output,
                                    std::vector<Tensor> grads) {
  const std::size_t batch = input.dim(0), time = input.dim(1);
  const std::size_t in = input.dim(2), hidden = w_hh.dim(1);
  struct StepCache {
    Tensor x, h_prev, c_prev, gates, tanh_c;
  };
  std::vector<StepCache> steps;
  Tensor h({batch, hidden});
  Tensor c({batch, hidden});
  RecurrentPass pass{Tensor({batch, time, hidden}),
                     Tensor({batch, time, in}), std::move(grads)};
  for (std::size_t t = 0; t < time; ++t) {
    Tensor gates = matmul_nt(time_slice(input, t), w_ih);
    gates += matmul_nt(h, w_hh);
    add_bias_rows(gates, bias);
    StepCache cache{time_slice(input, t), h, c, Tensor(),
                    Tensor({batch, hidden})};
    for (std::size_t s = 0; s < batch; ++s) {
      float* grow = gates.raw() + s * 4 * hidden;
      const std::span<float> if_gates(grow, 2 * hidden);
      const std::span<float> g_gate(grow + 2 * hidden, hidden);
      const std::span<float> o_gate(grow + 3 * hidden, hidden);
      apf::sigmoid(if_gates, if_gates);
      apf::tanh(g_gate, g_gate);
      apf::sigmoid(o_gate, o_gate);
      float* crow = c.raw() + s * hidden;
      for (std::size_t j = 0; j < hidden; ++j)
        crow[j] = grow[hidden + j] * crow[j] + grow[j] * grow[2 * hidden + j];
      float* tc = cache.tanh_c.raw() + s * hidden;
      apf::tanh(std::span<const float>(crow, hidden),
                std::span<float>(tc, hidden));
      for (std::size_t j = 0; j < hidden; ++j) {
        const float hv = grow[3 * hidden + j] * tc[j];
        h[s * hidden + j] = hv;
        pass.out[(s * time + t) * hidden + j] = hv;
      }
    }
    cache.gates = std::move(gates);
    steps.push_back(std::move(cache));
  }
  Tensor dh({batch, hidden});
  Tensor dc({batch, hidden});
  for (std::size_t t = time; t-- > 0;) {
    const StepCache& cache = steps[t];
    Tensor dgates({batch, 4 * hidden});
    for (std::size_t s = 0; s < batch; ++s) {
      const float* act = cache.gates.raw() + s * 4 * hidden;
      for (std::size_t j = 0; j < hidden; ++j) {
        const std::size_t idx = s * hidden + j;
        const float dh_total =
            grad_output[(s * time + t) * hidden + j] + dh[idx];
        const float o = act[3 * hidden + j];
        const float tc = cache.tanh_c[idx];
        const float dct = dh_total * o * (1.f - tc * tc) + dc[idx];
        const float i = act[j];
        const float f = act[hidden + j];
        const float g = act[2 * hidden + j];
        const float di = dct * g;
        const float df = dct * cache.c_prev[idx];
        const float dg = dct * i;
        const float do_ = dh_total * tc;
        float* grow = dgates.raw() + s * 4 * hidden;
        grow[j] = di * i * (1.f - i);
        grow[hidden + j] = df * f * (1.f - f);
        grow[2 * hidden + j] = dg * (1.f - g * g);
        grow[3 * hidden + j] = do_ * o * (1.f - o);
        dc[idx] = dct * f;
      }
    }
    pass.grads[0] += matmul_tn(dgates, cache.x);
    pass.grads[1] += matmul_tn(dgates, cache.h_prev);
    for (std::size_t s = 0; s < batch; ++s) {
      const float* grow = dgates.raw() + s * 4 * hidden;
      for (std::size_t j = 0; j < 4 * hidden; ++j) pass.grads[2][j] += grow[j];
    }
    set_time_slice(pass.grad_input, t, matmul(dgates, w_ih));
    dh = matmul(dgates, w_hh);
  }
  return pass;
}

/// GRU with weights w_ih (3H, in), w_hh (3H, H) and biases b_ih, b_hh (3H),
/// gates [r, z, n]; grads holds the w_ih, w_hh, b_ih and b_hh gradients.
inline RecurrentPass gru_reference(const Tensor& w_ih, const Tensor& w_hh,
                                   const Tensor& b_ih, const Tensor& b_hh,
                                   const Tensor& input,
                                   const Tensor& grad_output,
                                   std::vector<Tensor> grads) {
  const std::size_t batch = input.dim(0), time = input.dim(1);
  const std::size_t in = input.dim(2), hidden = w_hh.dim(1);
  struct StepCache {
    Tensor x, h_prev, gates, gh;
  };
  std::vector<StepCache> steps;
  Tensor h({batch, hidden});
  RecurrentPass pass{Tensor({batch, time, hidden}),
                     Tensor({batch, time, in}), std::move(grads)};
  for (std::size_t t = 0; t < time; ++t) {
    Tensor gi = matmul_nt(time_slice(input, t), w_ih);
    add_bias_rows(gi, b_ih);
    Tensor gh = matmul_nt(h, w_hh);
    add_bias_rows(gh, b_hh);
    StepCache cache{time_slice(input, t), h, Tensor(), Tensor()};
    for (std::size_t s = 0; s < batch; ++s) {
      float* girow = gi.raw() + s * 3 * hidden;
      const float* ghrow = gh.raw() + s * 3 * hidden;
      for (std::size_t j = 0; j < 2 * hidden; ++j) girow[j] += ghrow[j];
      const std::span<float> rz_gates(girow, 2 * hidden);
      apf::sigmoid(rz_gates, rz_gates);
      for (std::size_t j = 0; j < hidden; ++j)
        girow[2 * hidden + j] += girow[j] * ghrow[2 * hidden + j];
      const std::span<float> n_gate(girow + 2 * hidden, hidden);
      apf::tanh(n_gate, n_gate);
      for (std::size_t j = 0; j < hidden; ++j) {
        const std::size_t idx = s * hidden + j;
        const float z = girow[hidden + j];
        const float hv = (1.f - z) * n_gate[j] + z * h[idx];
        h[idx] = hv;
        pass.out[(s * time + t) * hidden + j] = hv;
      }
    }
    cache.gates = std::move(gi);
    cache.gh = std::move(gh);
    steps.push_back(std::move(cache));
  }
  Tensor dh({batch, hidden});
  for (std::size_t t = time; t-- > 0;) {
    const StepCache& cache = steps[t];
    Tensor dgates_ih({batch, 3 * hidden});
    Tensor dgates_hh({batch, 3 * hidden});
    Tensor dh_prev_direct({batch, hidden});
    for (std::size_t s = 0; s < batch; ++s) {
      const float* act = cache.gates.raw() + s * 3 * hidden;
      const float* ghrow = cache.gh.raw() + s * 3 * hidden;
      for (std::size_t j = 0; j < hidden; ++j) {
        const std::size_t idx = s * hidden + j;
        const float dh_total =
            grad_output[(s * time + t) * hidden + j] + dh[idx];
        const float r = act[j];
        const float z = act[hidden + j];
        const float n = act[2 * hidden + j];
        const float hn_lin = ghrow[2 * hidden + j];
        const float h_prev = cache.h_prev[idx];
        const float dz = dh_total * (h_prev - n);
        const float dn = dh_total * (1.f - z);
        dh_prev_direct[idx] = dh_total * z;
        const float dn_pre = dn * (1.f - n * n);
        const float dr = dn_pre * hn_lin;
        const float d_hn_lin = dn_pre * r;
        const float dr_pre = dr * r * (1.f - r);
        const float dz_pre = dz * z * (1.f - z);
        float* ihrow = dgates_ih.raw() + s * 3 * hidden;
        float* hhrow = dgates_hh.raw() + s * 3 * hidden;
        ihrow[j] = dr_pre;
        ihrow[hidden + j] = dz_pre;
        ihrow[2 * hidden + j] = dn_pre;
        hhrow[j] = dr_pre;
        hhrow[hidden + j] = dz_pre;
        hhrow[2 * hidden + j] = d_hn_lin;
      }
    }
    pass.grads[0] += matmul_tn(dgates_ih, cache.x);
    pass.grads[1] += matmul_tn(dgates_hh, cache.h_prev);
    for (std::size_t s = 0; s < batch; ++s) {
      const float* ihrow = dgates_ih.raw() + s * 3 * hidden;
      const float* hhrow = dgates_hh.raw() + s * 3 * hidden;
      for (std::size_t j = 0; j < 3 * hidden; ++j) {
        pass.grads[2][j] += ihrow[j];
        pass.grads[3][j] += hhrow[j];
      }
    }
    set_time_slice(pass.grad_input, t, matmul(dgates_ih, w_ih));
    dh = matmul(dgates_hh, w_hh);
    dh += dh_prev_direct;
  }
  return pass;
}

}  // namespace apf::test
