// Linear-algebra kernels over Tensor: matmul family, transpose, row softmax.
//
// These are the hot loops of the NN substrate. Determinism rule: a kernel
// may vectorize across output elements but never reassociates a reduction,
// so every output gets the additions of the plain scalar loop, in the same
// order, on any lane count. matmul and matmul_tn sweep contiguous output
// rows (ikj order, float accumulation in place). matmul_nt packs B into
// zero-padded panels of 8 rows stored k-major (panel[kk*8 + jj] =
// B[j0 + jj][kk]) and runs 8 independent double accumulators per row of A
// with kk ascending, so it matches the scalar double dot product bit for
// bit. Only matmul_nt allocates beyond its output (the packed panels).
#pragma once

#include "tensor/tensor.h"

namespace apf {

/// C = A(mxk) * B(kxn).
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A^T(m x k -> k x m) * B ... computed without materializing A^T.
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// C = A * B^T, without materializing B^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// 2-D transpose.
Tensor transpose(const Tensor& a);

/// Row-wise softmax of a 2-D tensor (numerically stabilized).
Tensor softmax_rows(const Tensor& logits);

/// Row-wise argmax of a 2-D tensor.
std::vector<std::size_t> argmax_rows(const Tensor& t);

/// Adds bias vector (length n) to every row of a (m x n) tensor, in place.
void add_bias_rows(Tensor& t, const Tensor& bias);

}  // namespace apf
