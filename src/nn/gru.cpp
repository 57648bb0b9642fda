#include "nn/gru.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

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

// Views of one forward's buffer: a training forward keeps one slot per step
// (h one more, for h_0); an eval forward keeps one slot, which every step
// reuses, reading h before it overwrites it.
struct GRU::Steps {
  float* x;        // the input (N, T, in); training only
  float* h;        // h_t, (N, H) per slot
  float* gates;    // step t's activated gates, gate-major (3, N, H)
  float* hn;       // step t's hn_lin (N, H)
  float* pre_i;    // one step's x W_ih^T (N, 3H), row-major
  float* pre_h;    // one step's h W_hh^T (N, 3H), row-major
  std::size_t nh;  // N * H
  bool per_step;   // one slot per step (training)

  std::size_t slot(std::size_t t) const { return per_step ? t : 0; }
  float* h_at(std::size_t t) const { return h + slot(t) * nh; }
  float* gates_at(std::size_t t) const { return gates + slot(t) * 3 * nh; }
  float* hn_at(std::size_t t) const { return hn + slot(t) * nh; }
};

std::size_t GRU::steps_size(bool training) const {
  const std::size_t nh = batch_ * hidden_;
  const std::size_t slots = training ? time_ : 1;
  const std::size_t states = training ? time_ + 1 : 1;
  const std::size_t x_size = training ? batch_ * time_ * input_size_ : 0;
  return x_size + states * nh + 4 * slots * nh + 6 * nh;
}

GRU::Steps GRU::steps(float* base, bool training) const {
  const std::size_t nh = batch_ * hidden_;
  const std::size_t slots = training ? time_ : 1;
  const std::size_t states = training ? time_ + 1 : 1;
  const std::size_t x_size = training ? batch_ * time_ * input_size_ : 0;
  Steps st{};
  st.x = base;
  st.h = st.x + x_size;
  st.gates = st.h + states * nh;
  st.hn = st.gates + 3 * slots * nh;
  st.pre_i = st.hn + slots * nh;
  st.pre_h = st.pre_i + 3 * nh;
  st.nh = nh;
  st.per_step = training;
  return st;
}

Tensor GRU::forward(const Tensor& input) {
  APF_CHECK_MSG(input.rank() == 3 && input.dim(2) == input_size_,
                "GRU expects (N,T," << input_size_ << "), got "
                                    << shape_str(input.shape()));
  batch_ = input.dim(0);
  time_ = input.dim(1);
  // Evaluation keeps one step in a call-local buffer and holds no BPTT
  // caches; backward then refuses to run.
  const bool keep_caches = training();
  std::unique_ptr<float[]> local;
  float* base = nullptr;
  if (keep_caches) {
    base = cache_.hold<float>(steps_size(true));
  } else {
    cache_.drop();
    local = std::make_unique_for_overwrite<float[]>(steps_size(false));
    base = local.get();
  }
  const Steps st = steps(base, keep_caches);
  const std::size_t n = batch_, hid = hidden_, nh = st.nh;
  if (keep_caches) std::copy(input.raw(), input.raw() + input.numel(), st.x);
  std::fill(st.h, st.h + nh, 0.f);
  Tensor out({batch_, time_, hidden_});
  // The weights change only between forwards: pack each once for all steps.
  const NtPacked w_ih(w_ih_.value);
  const NtPacked w_hh(w_hh_.value);
  const float* b_ih = bias_ih_.value.raw();
  const float* b_hh = bias_hh_.value.raw();
  for (std::size_t t = 0; t < time_; ++t) {
    const float* h_prev = st.h_at(t);
    float* h = st.h_at(t + 1);
    float* gates = st.gates_at(t);
    float* hn = st.hn_at(t);
    // x W_ih^T and h W_hh^T (N, 3H); x is step t of the input, read in
    // place.
    matmul_nt(input.raw() + t * input_size_, time_ * input_size_, n, w_ih,
              st.pre_i);
    matmul_nt(h_prev, hid, n, w_hh, st.pre_h);
    // The gate pre-activations, gate-major, so each activation runs once
    // per gate over the whole batch: r and z take both biased products, n
    // its input side (the reset product is added once r is known).
    for (std::size_t s = 0; s < n; ++s) {
      const float* gi = st.pre_i + 3 * s * hid;
      const float* gh = st.pre_h + 3 * s * hid;
      for (std::size_t q = 0; q < 2; ++q) {
        float* dst = gates + (q * n + s) * hid;
        for (std::size_t j = 0; j < hid; ++j) {
          const std::size_t col = q * hid + j;
          dst[j] = (gi[col] + b_ih[col]) + (gh[col] + b_hh[col]);
        }
      }
      float* n_row = gates + (2 * n + s) * hid;
      float* hn_row = hn + s * hid;
      for (std::size_t j = 0; j < hid; ++j) {
        const std::size_t col = 2 * hid + j;
        n_row[j] = gi[col] + b_ih[col];
        hn_row[j] = gh[col] + b_hh[col];
      }
    }
    const std::span<float> rz_gates(gates, 2 * nh);
    const std::span<float> n_gate(gates + 2 * nh, nh);
    apf::sigmoid(rz_gates, rz_gates);
    for (std::size_t i = 0; i < nh; ++i) n_gate[i] += gates[i] * hn[i];
    apf::tanh(n_gate, n_gate);
    const float* zg = gates + nh;
    for (std::size_t s = 0; s < n; ++s) {
      float* out_row = out.raw() + (s * time_ + t) * hid;
      for (std::size_t j = 0; j < hid; ++j) {
        const std::size_t i = s * hid + j;
        const float z = zg[i];
        const float hv = (1.f - z) * n_gate[i] + z * h_prev[i];
        h[i] = hv;
        out_row[j] = hv;
      }
    }
  }
  return out;
}

Tensor GRU::backward(const Tensor& grad_output) {
  float* base =
      cache_.get<float>("GRU::backward needs a training-mode forward first")
          .data();
  APF_CHECK(grad_output.rank() == 3 && grad_output.dim(0) == batch_ &&
            grad_output.dim(1) == time_ && grad_output.dim(2) == hidden_);
  const Steps st = steps(base, true);
  const std::size_t n = batch_, hid = hidden_, nh = st.nh, in = input_size_;
  Tensor grad_input({batch_, time_, in});
  // The lane's transient buffer: every step's pre-activation gradients of
  // the input-side and hidden-side products, each laid out (N, T, 3H) like
  // the input, so that the GEMMs read step t in place and dW and dx run
  // once over all steps; then the gradient flowing into h_t from step t + 1
  // (zero past the last step).
  const std::size_t cols = 3 * hid, ldg = time_ * cols;
  float* dgates_ih = lane_transient(2 * n * ldg + nh);
  float* dgates_hh = dgates_ih + n * ldg;
  float* dh = dgates_hh + n * ldg;
  std::fill(dh, dh + nh, 0.f);
  // The weights change only between backwards: pack each once for all
  // steps.
  const GemmPacked w_ih(w_ih_.value);
  const GemmPacked w_hh(w_hh_.value);
  float* b_ih_grad = bias_ih_.grad.raw();
  float* b_hh_grad = bias_hh_.grad.raw();
  for (std::size_t t = time_; t-- > 0;) {
    const float* act = st.gates_at(t);
    const float* hn = st.hn_at(t);
    const float* h_prev_t = st.h_at(t);
    float* step_ih = dgates_ih + t * cols;
    float* step_hh = dgates_hh + t * cols;
    for (std::size_t s = 0; s < n; ++s) {
      const float* dy = grad_output.raw() + (s * time_ + t) * hid;
      float* ihrow = step_ih + s * ldg;
      float* hhrow = step_hh + s * ldg;
      // Every element reads and writes only its own slots (the rows, dh
      // and the inputs lie in disjoint buffers), so the loop vectorizes.
#pragma GCC ivdep
      for (std::size_t j = 0; j < hid; ++j) {
        const std::size_t idx = s * hid + j;
        const float dh_total = dy[j] + dh[idx];
        const float r = act[idx];
        const float z = act[nh + idx];
        const float nv = act[2 * nh + idx];
        const float hn_lin = hn[idx];
        const float h_prev = h_prev_t[idx];
        const float dz = dh_total * (h_prev - nv);
        const float dn = dh_total * (1.f - z);
        const float dn_pre = dn * (1.f - nv * nv);
        const float dr = dn_pre * hn_lin;
        const float d_hn_lin = dn_pre * r;
        const float dr_pre = dr * r * (1.f - r);
        const float dz_pre = dz * z * (1.f - z);
        ihrow[j] = dr_pre;
        ihrow[hid + j] = dz_pre;
        ihrow[2 * hid + j] = dn_pre;
        hhrow[j] = dr_pre;
        hhrow[hid + j] = dz_pre;
        hhrow[2 * hid + j] = d_hn_lin;
        // The direct path into h_{t-1}; the gates' path is folded in below.
        dh[idx] = dh_total * z;
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      const float* ihrow = step_ih + s * ldg;
      const float* hhrow = step_hh + s * ldg;
      for (std::size_t j = 0; j < cols; ++j) {
        b_ih_grad[j] += ihrow[j];
        b_hh_grad[j] += hhrow[j];
      }
    }
    // dh_{t-1} = direct + dgates_hh W_hh, the sum of `M + direct` with its
    // operands swapped (float addition commutes). Step 0 feeds no earlier
    // step.
    if (t > 0) matmul_packed(step_hh, ldg, n, w_hh, dh, hid, true);
  }
  // The weight gradients, folded in place over all steps, last step first
  // (x_t is step t of the input copy, h_t that of the states), and dx, each
  // (s, t) row of grad_input from the same row of dgates_ih.
  matmul_tn_fold({dgates_ih, ldg, cols}, {st.x, time_ * in, in}, n, cols, in,
                 time_, w_ih_.grad.raw());
  matmul_tn_fold({dgates_hh, ldg, cols}, {st.h, hid, nh}, n, cols, hid, time_,
                 w_hh_.grad.raw());
  matmul_packed(dgates_ih, cols, n * time_, w_ih, grad_input.raw(), in, false);
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
