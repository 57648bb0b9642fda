// Linear-algebra kernels over Tensor: matmul family and row softmax.
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
// The same GEMM has two more entry points that allocate no output. A
// GemmPacked handle holds B packed once, for any number of A (a recurrent
// backward packs each weight once per call); it can fold, adding each
// finished tile row to C with one float add, C + acc, where a Tensor result
// would have been stored and then added by `C += result`. The tile's acc is
// that result bit for bit, and float addition commutes, so the fold gives
// the bits of `C += matmul(A, B)` and of `C = matmul(A, B) + C` alike.
// matmul_tn_fold adds A_t^T B_t into C in place for a run of steps t,
// last step first: its tile keeps C in registers across the steps and adds
// each step's float sum with one float add, the bits of one `C +=
// matmul_tn(A_t, B_t)` per step in descending t.
//
// matmul_nt and matmul_nt_pair pack B^T into the same 8-column panels as
// doubles, widen A to doubles in chunks of 64 rows, and keep a tile of
// double accumulators with the reduction ascending: the scalar double dot
// product, bit for bit. Pool runs partition output tiles (row tiles x
// column blocks), never a reduction. matmul_nt reads B through an NtPacked
// handle, packed once for any number of A (a recurrent layer packs each
// weight once per forward); matmul_nt_pair runs two such products into one
// C in one pass, rounding each dot product to float and adding the two
// with one float add. The same double tile runs a segment fold, C += A_s
// B_s^T over segments s in order, whose one user is the conv weight
// gradient (conv2d_weight_grad, tensor/conv.h): it packs runs of segments
// per column block. Besides their output the kernels allocate the widened copy
// of A and, for the segment fold, one packed panel run per block.
//
// The pointer forms of matmul_nt, matmul_nt_pair and GemmPacked are the
// per-step products of the recurrent layers, at most a few hundred
// thousand flops each, and run serially on the calling thread: a pool
// fan-out per step costs more than it saves. The Tensor forms, the step
// fold and the conv kernels fan out above a flop threshold.
//
// The implicit-GEMM conv kernels (tensor/conv.h) are defined in ops.cpp and
// run these tiles with other panel sources and stores: the float tile over
// panels packed from padded images (forward, stored into the NCHW output)
// and from the output gradient (input gradient, added into the gradient
// images), and the fold's double tile over panels packed from padded
// images (weight gradient).
//
// Two tile shapes exist, each with eight vector accumulators. The baseline
// (16-byte vectors, SSE2 on x86-64) keeps 4 x 8 floats and 2 x 8 doubles;
// the AVX2 tiles keep 8 x 8 floats and 4 x 8 doubles. A tile only decides
// how many outputs run side by side, so both give the same bits. The
// instruction set, the vector types and the load/store helpers come from
// tensor/simd.h, which picks one set per process for these tiles and the
// activation kernels alike (GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2 or -FMA
// selects the baseline on an AVX2 host).
//
// The AVX2 double tile adds each product with a fused multiply-add, and
// that changes no bit: a float has a 24-bit significand, so a float*float
// product has at most 48 and is exact in double (its exponent stays far
// inside double's range, subnormal floats included). The separate multiply
// therefore never rounds, and for finite inputs fma(a, b, acc) rounds once,
// exactly where the add after it would. The float tiles keep a separate
// multiply and add, since a float product rounds, and the baseline has no
// FMA; ops.cpp is built with -ffp-contract=off and writes the FMA out.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace apf {

/// C = A(mxk) * B(kxn).
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A^T(m x k -> k x m) * B ... computed without materializing A^T.
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// Rows of one operand of matmul_tn_fold: row i of step t is the floats at
/// data + t * step + i * ld.
struct StepRows {
  const float* data;
  std::size_t ld;    // between the rows of one step
  std::size_t step;  // between steps (unused for one step)
};

/// C(k x n) += A_t^T * B_t in place for t = steps - 1 down to 0, bit for
/// bit one `C += matmul_tn(A_t, B_t)` per step in that order: A_t is an
/// (m x k) and B_t an (m x n) matrix of StepRows (a.ld >= k, b.ld >= n),
/// and C is row-major with row stride n. Besides its packed panel runs it
/// allocates nothing. steps = 1 is the plain fold C += A^T B.
void matmul_tn_fold(StepRows a, StepRows b, std::size_t m, std::size_t k,
                    std::size_t n, std::size_t steps, float* c);

/// B (k x n) of matmul packed once, as the k-major 8-column float panels
/// the matmul tile reads, for any number of products A * B (the float twin
/// of NtPacked below). The handle holds a copy: it goes stale when B
/// changes, so pack a weight where it is used (LSTM and GRU pack theirs
/// once per backward).
class GemmPacked {
 public:
  explicit GemmPacked(const Tensor& b);

 private:
  friend void matmul_packed(const float* a, std::size_t lda, std::size_t m,
                            const GemmPacked& b, float* c, std::size_t ldc,
                            bool fold);
  std::size_t rows_ = 0;  // k: the reduction length
  std::size_t cols_ = 0;  // n: the columns of C
  std::vector<float> panels_;
};

/// C(m x n) = A * B with B packed in b (k x n). Row i of A is the k floats
/// at a + i * lda (lda >= k), and row i of C the n floats at c + i * ldc
/// (ldc >= n), so A and C can be steps of (N, T, F) sequences. Each output
/// is the float sum of matmul, stored over C, or with fold added to C with
/// one float add: bit for bit C += matmul(A, B). Runs on the calling
/// thread.
void matmul_packed(const float* a, std::size_t lda, std::size_t m,
                   const GemmPacked& b, float* c, std::size_t ldc, bool fold);

/// C = A * B^T, without materializing B^T: packs B, then runs the tiles of
/// the pointer form below, on the pool above a flop threshold.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// B (r x k) of matmul_nt packed once, as the double panels the matmul_nt
/// tile reads, for any number of products A * B^T. The handle holds a copy:
/// it goes stale when B changes, and nothing invalidates it, so pack a
/// weight where it is used (LSTM and GRU pack theirs once per forward).
class NtPacked {
 public:
  explicit NtPacked(const Tensor& b);

 private:
  friend Tensor matmul_nt(const Tensor& a, const Tensor& b);
  friend void matmul_nt(const float* a, std::size_t lda, std::size_t m,
                        const NtPacked& b, float* c);
  friend void matmul_nt_pair(const float* a1, std::size_t lda1,
                             const NtPacked& b1, const float* a2,
                             std::size_t lda2, const NtPacked& b2,
                             std::size_t m, float* c);
  std::size_t rows_ = 0;  // r: the columns of C
  std::size_t cols_ = 0;  // k: the reduction length
  std::vector<double> panels_;
};

/// C(m x r) = A * B^T with B packed in b (r x k). Row i of A is the k floats
/// at a + i * lda (lda >= k), so a step of a (N, T, F) sequence is read in
/// place; C is row-major with row stride r. Each output is the double dot
/// product rounded to float, stored over C. Runs on the calling thread.
void matmul_nt(const float* a, std::size_t lda, std::size_t m,
               const NtPacked& b, float* c);

/// C(m x r) = A1 * B1^T + A2 * B2^T in one pass, with B1 (r x k1) and B2
/// (r x k2) packed, A1 and A2 read like matmul_nt's A (lda1 >= k1, lda2 >=
/// k2) and C row-major with row stride r. Each output is the first double
/// dot product rounded to float plus the second rounded to float, one
/// float add: bit for bit matmul_nt(A1, B1) stored, then `C +=
/// matmul_nt(A2, B2)`. An LSTM step's x W_ih^T + h W_hh^T. Runs on the
/// calling thread.
void matmul_nt_pair(const float* a1, std::size_t lda1, const NtPacked& b1,
                    const float* a2, std::size_t lda2, const NtPacked& b2,
                    std::size_t m, float* c);

/// The instruction set the matmul family and the activation kernels run in
/// this process: "avx2" when glibc reports AVX2 and FMA active on x86-64,
/// else "sse2" (the baseline). Both give the same bits; the name is for
/// benchmark reports.
const char* gemm_simd_path();

/// Row-wise softmax of a 2-D tensor (numerically stabilized); its exp is
/// apf::exp (tensor/activations.h).
Tensor softmax_rows(const Tensor& logits);

/// Row-wise argmax of a 2-D tensor.
std::vector<std::size_t> argmax_rows(const Tensor& t);

/// Adds bias vector (length n) to every row of a (m x n) tensor, in place.
void add_bias_rows(Tensor& t, const Tensor& bias);

}  // namespace apf
