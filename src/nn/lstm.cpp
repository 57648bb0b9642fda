#include "nn/lstm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

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

// Views of one forward's buffer: a training forward keeps one slot per step
// (h and c one more, for h_0 and c_0); an eval forward keeps one slot,
// which every step reuses, reading h and c before it overwrites them.
struct LSTM::Steps {
  float* x;        // the input (N, T, in); training only
  float* h;        // h_t, (N, H) per slot
  float* c;        // c_t, (N, H) per slot
  float* gates;    // step t's activated gates, gate-major (4, N, H)
  float* tanh_c;   // tanh(c_{t+1}) of step t (N, H)
  float* pre;      // one step's gate pre-activations (N, 4H), row-major
  std::size_t nh;  // N * H
  bool per_step;   // one slot per step (training)

  std::size_t slot(std::size_t t) const { return per_step ? t : 0; }
  float* h_at(std::size_t t) const { return h + slot(t) * nh; }
  float* c_at(std::size_t t) const { return c + slot(t) * nh; }
  float* gates_at(std::size_t t) const { return gates + slot(t) * 4 * nh; }
  float* tanh_c_at(std::size_t t) const { return tanh_c + slot(t) * nh; }
};

std::size_t LSTM::steps_size(bool training) const {
  const std::size_t nh = batch_ * hidden_;
  const std::size_t slots = training ? time_ : 1;
  const std::size_t states = training ? time_ + 1 : 1;
  const std::size_t x_size = training ? batch_ * time_ * input_size_ : 0;
  return x_size + 2 * states * nh + 5 * slots * nh + 4 * nh;
}

LSTM::Steps LSTM::steps(float* base, bool training) const {
  const std::size_t nh = batch_ * hidden_;
  const std::size_t slots = training ? time_ : 1;
  const std::size_t states = training ? time_ + 1 : 1;
  const std::size_t x_size = training ? batch_ * time_ * input_size_ : 0;
  Steps st{};
  st.x = base;
  st.h = st.x + x_size;
  st.c = st.h + states * nh;
  st.gates = st.c + states * nh;
  st.tanh_c = st.gates + 4 * slots * nh;
  st.pre = st.tanh_c + slots * nh;
  st.nh = nh;
  st.per_step = training;
  return st;
}

Tensor LSTM::forward(const Tensor& input) {
  APF_CHECK_MSG(input.rank() == 3 && input.dim(2) == input_size_,
                "LSTM expects (N,T," << input_size_ << "), got "
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
  std::fill(st.c, st.c + nh, 0.f);
  Tensor out({batch_, time_, hidden_});
  // The weights change only between forwards: pack each once for all steps.
  const NtPacked w_ih(w_ih_.value);
  const NtPacked w_hh(w_hh_.value);
  const float* bias = bias_.value.raw();
  for (std::size_t t = 0; t < time_; ++t) {
    const float* h_prev = st.h_at(t);
    const float* c_prev = st.c_at(t);
    float* h = st.h_at(t + 1);
    float* c = st.c_at(t + 1);
    float* gates = st.gates_at(t);
    float* tanh_c = st.tanh_c_at(t);
    // pre (N, 4H) = x W_ih^T + h W_hh^T in one pass; x is step t of the
    // input, read in place. The h product runs at t = 0 too, where h is
    // zero: adding +0 turns a -0 gate into +0.
    matmul_nt_pair(input.raw() + t * input_size_, time_ * input_size_, w_ih,
                   h_prev, hid, w_hh, n, st.pre);
    // Plus the bias, stored gate-major, so each activation runs once per
    // gate over the whole batch.
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t q = 0; q < 4; ++q) {
        const float* src = st.pre + (4 * s + q) * hid;
        const float* b = bias + q * hid;
        float* dst = gates + (q * n + s) * hid;
        for (std::size_t j = 0; j < hid; ++j) dst[j] = src[j] + b[j];
      }
    }
    const float* ig = gates;
    const float* fg = gates + nh;
    const std::span<float> if_gates(gates, 2 * nh);
    const std::span<float> g_gate(gates + 2 * nh, nh);
    const std::span<float> o_gate(gates + 3 * nh, nh);
    apf::sigmoid(if_gates, if_gates);
    apf::tanh(g_gate, g_gate);
    apf::sigmoid(o_gate, o_gate);
    for (std::size_t i = 0; i < nh; ++i)
      c[i] = fg[i] * c_prev[i] + ig[i] * g_gate[i];
    apf::tanh(std::span<const float>(c, nh), std::span<float>(tanh_c, nh));
    for (std::size_t s = 0; s < n; ++s) {
      float* out_row = out.raw() + (s * time_ + t) * hid;
      for (std::size_t j = 0; j < hid; ++j) {
        const std::size_t i = s * hid + j;
        const float hv = o_gate[i] * tanh_c[i];
        h[i] = hv;
        out_row[j] = hv;
      }
    }
  }
  return out;
}

Tensor LSTM::backward(const Tensor& grad_output) {
  float* base =
      cache_.get<float>("LSTM::backward needs a training-mode forward first")
          .data();
  APF_CHECK(grad_output.rank() == 3 && grad_output.dim(0) == batch_ &&
            grad_output.dim(1) == time_ && grad_output.dim(2) == hidden_);
  const Steps st = steps(base, true);
  const std::size_t n = batch_, hid = hidden_, nh = st.nh, in = input_size_;
  Tensor grad_input({batch_, time_, in});
  // The lane's transient buffer: every step's pre-activation gate
  // gradients, laid out (N, T, 4H) like the input, so that the GEMMs read
  // step t in place and dW and dx run once over all steps; then the
  // gradients flowing into h_t and c_t from step t + 1 (zero past the last
  // step).
  const std::size_t cols = 4 * hid, ldg = time_ * cols;
  float* dgates = lane_transient(n * ldg + 2 * nh);
  float* dh = dgates + n * ldg;
  float* dc = dh + nh;
  std::fill(dh, dc + nh, 0.f);
  // The weights change only between backwards: pack each once for all
  // steps.
  const GemmPacked w_ih(w_ih_.value);
  const GemmPacked w_hh(w_hh_.value);
  float* bias_grad = bias_.grad.raw();
  for (std::size_t t = time_; t-- > 0;) {
    const float* act = st.gates_at(t);
    const float* tanh_c = st.tanh_c_at(t);
    const float* c_prev = st.c_at(t);
    float* step = dgates + t * cols;
    for (std::size_t s = 0; s < n; ++s) {
      const float* dy = grad_output.raw() + (s * time_ + t) * hid;
      float* grow = step + s * ldg;
      // Every element reads and writes only its own slots (grow, dc and
      // the inputs lie in disjoint buffers), so the loop vectorizes.
#pragma GCC ivdep
      for (std::size_t j = 0; j < hid; ++j) {
        const std::size_t idx = s * hid + j;
        const float dh_total = dy[j] + dh[idx];
        const float o = act[3 * nh + idx];
        const float tc = tanh_c[idx];
        const float dct = dh_total * o * (1.f - tc * tc) + dc[idx];
        const float i = act[idx];
        const float f = act[nh + idx];
        const float g = act[2 * nh + idx];
        const float di = dct * g;
        const float df = dct * c_prev[idx];
        const float dg = dct * i;
        const float do_ = dh_total * tc;
        grow[j] = di * i * (1.f - i);
        grow[hid + j] = df * f * (1.f - f);
        grow[2 * hid + j] = dg * (1.f - g * g);
        grow[3 * hid + j] = do_ * o * (1.f - o);
        dc[idx] = dct * f;
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      const float* grow = step + s * ldg;
      for (std::size_t j = 0; j < cols; ++j) bias_grad[j] += grow[j];
    }
    // The recurrent gradient feeds step t - 1, so step 0 needs none.
    if (t > 0) matmul_packed(step, ldg, n, w_hh, dh, hid, false);
  }
  // The weight gradients, folded in place over all steps, last step first
  // (x_t is step t of the input copy, h_t that of the states), and dx, each
  // (s, t) row of grad_input from the same row of dgates.
  matmul_tn_fold({dgates, ldg, cols}, {st.x, time_ * in, in}, n, cols, in,
                 time_, w_ih_.grad.raw());
  matmul_tn_fold({dgates, ldg, cols}, {st.h, hid, nh}, n, cols, hid, time_,
                 w_hh_.grad.raw());
  matmul_packed(dgates, cols, n * time_, w_ih, grad_input.raw(), in, false);
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
