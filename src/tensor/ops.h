// Linear-algebra kernels over Tensor: matmul family, transpose, row softmax.
//
// These are the hot loops of the NN substrate. Determinism rule: a kernel
// may vectorize across output elements but never reassociates a reduction,
// so every output gets the additions of the plain scalar loop, in the same
// order, on any lane count and with either tile shape below.
//
// matmul and matmul_tn are thin wrappers over one register-tiled GEMM that
// reads A through row and column strides (A^T is never materialized). It
// packs B into zero-padded panels of 8 columns stored k-major and keeps a
// tile of float accumulators, starting at +0, that sweeps the reduction
// index in ascending order: the float additions of the scalar ikj loop, in
// its order. The tile has no zero-skip. For finite B that is exact: a*b
// with a = +-0 is +-0, and adding +-0 to an accumulator leaves it
// unchanged, because an accumulator that starts at +0 can never become -0
// (in round-to-nearest x + y is -0 only when both are -0). Only a zero in A
// against an inf or NaN in B gives a different (NaN) output than a skip.
//
// matmul_nt and matmul_nt_fold_segments pack B^T into the same 8-column
// panels as doubles, widen A to doubles once, and keep a tile of double
// accumulators with the reduction ascending: the scalar double dot
// product, bit for bit (a float*float product is exact in double, so FMA
// contraction cannot change it either). Pool runs partition output tiles
// (row tiles x column blocks), never a reduction. Besides their output the
// kernels allocate one packed panel run per block and, for the matmul_nt
// family, the widened copy of A.
//
// Two tile shapes exist, each with eight vector accumulators. The baseline
// (16-byte vectors, SSE2 on x86-64) keeps 4 x 8 floats and 2 x 8 doubles;
// the AVX2 tiles keep 8 x 8 floats and 4 x 8 doubles. A tile only decides
// how many outputs run side by side, so both give the same bits. The
// process picks one once, from glibc's CPU_FEATURE_ACTIVE(AVX2) on x86-64:
// GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2 selects the baseline on an AVX2
// host. Other targets compile only the baseline. Neither enables FMA, and
// ops.cpp is built with -ffp-contract=off.
#pragma once

#include "tensor/tensor.h"

namespace apf {

/// C = A(mxk) * B(kxn).
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A^T(m x k -> k x m) * B ... computed without materializing A^T.
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// C = A * B^T, without materializing B^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// C(m x r) += A_s * B_s^T for s = 0..segments-1, folded into C in segment
/// order. A_s is the row-major (m x len) slab at a + s * m * len (so A is
/// an NCHW-style batch); B_s is columns [s * len, (s + 1) * len) of the
/// row-major (r x segments * len) matrix b. Each product element is a double
/// dot product over its segment, rounded to float before the fold: exactly
/// matmul_nt(A_s, B_s) followed by C += for each s in turn.
void matmul_nt_fold_segments(const float* a, const float* b, std::size_t m,
                             std::size_t r, std::size_t segments,
                             std::size_t len, float* c);

/// The register tiles the matmul family runs in this process: "avx2" when
/// glibc reports AVX2 active on x86-64, else "sse2" (the baseline tiles).
/// Both give the same bits; the name is for benchmark reports.
const char* gemm_simd_path();

/// 2-D transpose.
Tensor transpose(const Tensor& a);

/// Row-wise softmax of a 2-D tensor (numerically stabilized).
Tensor softmax_rows(const Tensor& logits);

/// Row-wise argmax of a 2-D tensor.
std::vector<std::size_t> argmax_rows(const Tensor& t);

/// Adds bias vector (length n) to every row of a (m x n) tensor, in place.
void add_bias_rows(Tensor& t, const Tensor& bias);

}  // namespace apf
