// Helpers shared by the recurrent layers (LSTM, GRU).
#pragma once

#include <algorithm>
#include <cstddef>

#include "tensor/tensor.h"

namespace apf::nn {

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
