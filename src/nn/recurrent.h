// Helpers shared by the recurrent layers (LSTM, GRU).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "tensor/tensor.h"

namespace apf::nn {

/// Logistic sigmoid of one gate pre-activation. It still calls libm expf;
/// tensor/activations.h says why.
inline float sigmoidf(float x) { return 1.f / (1.f + std::exp(-x)); }

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

}  // namespace apf::nn
