#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "tensor/activations.h"
#include "conv_reference.h"
#include "tensor/conv.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace apf {
namespace {

using test::col2im;
using test::col2im_from;
using test::im2col;
using test::im2col_into;
using test::transpose;


TEST(Shape, NumelAndString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({}), 1u);
  EXPECT_EQ(shape_str({2, 3, 4}), "2x3x4");
}

TEST(Tensor, ZeroConstruction) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.f);
}

TEST(Tensor, FillConstruction) {
  Tensor t({4}, 2.5f);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, DataAdoption) {
  Tensor t({2, 2}, std::vector<float>{1, 2, 3, 4});
  EXPECT_EQ(t.at(1, 0), 3.f);
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2}), Error);
}

TEST(Tensor, MultiDimAccessors) {
  Tensor t4({2, 3, 4, 5});
  t4.at(1, 2, 3, 4) = 7.f;
  EXPECT_EQ(t4[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7.f);
  Tensor t3({2, 3, 4});
  t3.at(1, 2, 3) = 9.f;
  EXPECT_EQ(t3[(1 * 3 + 2) * 4 + 3], 9.f);
}

TEST(Tensor, BoundsChecked) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at(4), Error);
  EXPECT_THROW(t.at(2, 0), Error);
}

TEST(Tensor, Reshape) {
  Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.f);
  EXPECT_THROW(t.reshaped({4, 2}), Error);
}

TEST(Tensor, ArithmeticInPlace) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{10, 20, 30});
  a += b;
  EXPECT_EQ(a[2], 33.f);
  a -= b;
  EXPECT_EQ(a[2], 3.f);
  a *= 2.f;
  EXPECT_EQ(a[0], 2.f);
  a += 1.f;
  EXPECT_EQ(a[0], 3.f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({3}), b({4});
  EXPECT_THROW(a += b, Error);
}

TEST(Tensor, Reductions) {
  Tensor t({4}, std::vector<float>{1, -2, 3, 4});
  EXPECT_FLOAT_EQ(t.sum(), 6.f);
  EXPECT_FLOAT_EQ(t.mean(), 1.5f);
  EXPECT_FLOAT_EQ(t.min(), -2.f);
  EXPECT_FLOAT_EQ(t.max(), 4.f);
  EXPECT_FLOAT_EQ(t.norm(), std::sqrt(30.f));
}

TEST(Tensor, RandomInitRanges) {
  Rng rng(1);
  Tensor u = Tensor::uniform({1000}, rng, -0.5f, 0.5f);
  EXPECT_GE(u.min(), -0.5f);
  EXPECT_LT(u.max(), 0.5f);
  Tensor n = Tensor::normal({10000}, rng, 0.f, 1.f);
  EXPECT_NEAR(n.mean(), 0.f, 0.05f);
}

TEST(Tensor, HadamardAndDot) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{4, 5, 6});
  Tensor h = hadamard(a, b.data());
  EXPECT_EQ(h[2], 18.f);
  EXPECT_FLOAT_EQ(h.sum(), 32.f);  // the dot product
}

TEST(Ops, MatmulHandComputed) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.f);
}

TEST(Ops, MatmulInnerDimChecked) {
  Tensor a({2, 3}), b({2, 2});
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(Ops, MatmulTnMatchesExplicitTranspose) {
  Rng rng(2);
  Tensor a = Tensor::uniform({5, 4}, rng);
  Tensor b = Tensor::uniform({5, 6}, rng);
  Tensor expect = matmul(transpose(a), b);
  Tensor got = matmul_tn(a, b);
  ASSERT_EQ(got.shape(), expect.shape());
  for (std::size_t i = 0; i < got.numel(); ++i)
    EXPECT_NEAR(got[i], expect[i], 1e-5f);
}

TEST(Ops, MatmulNtMatchesExplicitTranspose) {
  Rng rng(3);
  Tensor a = Tensor::uniform({5, 4}, rng);
  Tensor b = Tensor::uniform({6, 4}, rng);
  Tensor expect = matmul(a, transpose(b));
  Tensor got = matmul_nt(a, b);
  ASSERT_EQ(got.shape(), expect.shape());
  for (std::size_t i = 0; i < got.numel(); ++i)
    EXPECT_NEAR(got[i], expect[i], 1e-5f);
}

// The scalar ikj loops matmul and matmul_tn must reproduce bit for bit: each
// output sums float products in ascending reduction order, skipping zeros
// of A (the register tile drops the skip, which is exact for finite B).
Tensor matmul_scalar_reference(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval = a.raw()[i * k + kk];
      if (aval == 0.f) continue;
      for (std::size_t j = 0; j < n; ++j)
        c.raw()[i * n + j] += aval * b.raw()[kk * n + j];
    }
  }
  return c;
}

Tensor matmul_tn_scalar_reference(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({k, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval = a.raw()[i * k + kk];
      if (aval == 0.f) continue;
      for (std::size_t j = 0; j < n; ++j)
        c.raw()[kk * n + j] += aval * b.raw()[i * n + j];
    }
  }
  return c;
}

// Uniform values of both signs with exact +0 and -0 sprinkled in.
Tensor signed_with_zeros(Shape shape, Rng& rng) {
  Tensor t = Tensor::uniform(std::move(shape), rng, -3.f, 3.f);
  for (std::size_t i = 0; i < t.numel(); i += 5) t[i] = 0.f;
  for (std::size_t i = 3; i < t.numel(); i += 7) t[i] = -0.f;
  return t;
}

bool bitwise_equal(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.raw(), y.raw(), x.numel() * sizeof(float)) == 0;
}

// Every shape the kernel sweeps compare: m, k and n over 1..19, which
// covers each row remainder of either tile shape (4 or 8 rows for floats,
// 2 or 4 for doubles) and each panel width, then 63, 64, 65 and 128 (the
// edges of matmul_nt's 64-row widening chunks, large enough to split over
// pool lanes) against a spread of small partners, and among themselves.
struct GemmShape {
  std::size_t m, k, n;
};

std::vector<GemmShape> kernel_shapes() {
  std::vector<GemmShape> shapes;
  for (std::size_t m = 1; m <= 19; ++m)
    for (std::size_t k = 1; k <= 19; ++k)
      for (std::size_t n = 1; n <= 19; ++n) shapes.push_back({m, k, n});
  const std::size_t big[] = {63, 64, 65, 128};
  const std::size_t partners[] = {1, 3, 4, 5, 8, 9, 17, 19};
  for (const std::size_t b : big) {
    for (const std::size_t x : partners) {
      for (const std::size_t y : partners) {
        shapes.push_back({b, x, y});
        shapes.push_back({x, b, y});
        shapes.push_back({x, y, b});
      }
    }
    for (const std::size_t c : big)
      for (const std::size_t d : big) shapes.push_back({b, c, d});
  }
  return shapes;
}

// Runs fn() on a compute pool of 1 and of 4 lanes.
template <typename Fn>
void on_1_and_4_lanes(const Fn& fn) {
  for (const std::size_t lanes : {1u, 4u}) {
    util::ThreadPool pool(lanes);
    const util::ScopedComputePool scope(pool);
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    fn();
  }
}

TEST(Ops, MatmulAndMatmulTnBitwiseMatchScalarReference) {
  // A carries exact +0 and -0; the reductions round differently if
  // reassociated.
  const std::vector<GemmShape> shapes = kernel_shapes();
  on_1_and_4_lanes([&] {
    Rng rng(3);
    for (const auto& [m, k, n] : shapes) {
      const Tensor a = signed_with_zeros({m, k}, rng);
      const Tensor b = Tensor::uniform({k, n}, rng, -3.f, 3.f);
      ASSERT_TRUE(bitwise_equal(matmul(a, b), matmul_scalar_reference(a, b)))
          << "matmul m=" << m << " k=" << k << " n=" << n;
      // matmul_tn reads A (k x m here) transposed: C is (m x n).
      const Tensor at = signed_with_zeros({k, m}, rng);
      ASSERT_TRUE(bitwise_equal(matmul_tn(at, b),
                                matmul_tn_scalar_reference(at, b)))
          << "matmul_tn m=" << m << " k=" << k << " n=" << n;
    }
  });
}

// A row-major (rows x cols) Tensor copied into a buffer whose rows sit ld
// floats apart from `offset` on, with NaN in the gaps and before offset: a
// kernel reading past a row's width would carry NaN into C, and one writing
// there would overwrite it.
std::vector<float> strided_copy(const Tensor& t, std::size_t ld,
                                std::size_t offset) {
  const std::size_t rows = t.dim(0), cols = t.dim(1);
  std::vector<float> buf(offset + rows * ld,
                         std::numeric_limits<float>::quiet_NaN());
  for (std::size_t i = 0; i < rows; ++i)
    std::copy(t.raw() + i * cols, t.raw() + (i + 1) * cols,
              buf.data() + offset + i * ld);
  return buf;
}

// The rows back out of strided_copy's layout, or a shape mismatch (which no
// bitwise comparison accepts) if a gap lost its NaN.
Tensor unstrided(const std::vector<float>& buf, std::size_t rows,
                 std::size_t cols, std::size_t ld, std::size_t offset) {
  for (std::size_t at = 0; at < buf.size(); ++at) {
    const bool in_row = at >= offset && (at - offset) % ld < cols;
    if (!in_row && !std::isnan(buf[at])) return Tensor({0});
  }
  Tensor t({rows, cols});
  for (std::size_t i = 0; i < rows; ++i)
    std::copy(buf.data() + offset + i * ld,
              buf.data() + offset + i * ld + cols, t.raw() + i * cols);
  return t;
}

// C = A * B through one packed handle, stored or folded, against the
// scalar ikj loop (folded: C0 + the loop's product, one float add). A's
// rows sit lda = k + 2 floats apart and C's ldc = n + 3 apart from one
// float past a panel-aligned start, so no C row starts on a panel boundary.
TEST(Ops, MatmulPackedBitwiseMatchesScalarReference) {
  const std::vector<GemmShape> shapes = kernel_shapes();
  on_1_and_4_lanes([&] {
    Rng rng(37);
    for (const auto& [m, k, n] : shapes) {
      const Tensor a = signed_with_zeros({m, k}, rng);
      const Tensor b = Tensor::uniform({k, n}, rng, -3.f, 3.f);
      const Tensor c0 = signed_with_zeros({m, n}, rng);
      const Tensor product = matmul_scalar_reference(a, b);
      Tensor folded = c0;
      folded += product;
      const std::size_t lda = k + 2, ldc = n + 3;
      const std::vector<float> a_buf = strided_copy(a, lda, 0);
      const GemmPacked packed(b);
      for (const bool fold : {false, true}) {
        std::vector<float> c_buf = strided_copy(c0, ldc, 1);
        matmul_packed(a_buf.data(), lda, m, packed, c_buf.data() + 1, ldc,
                      fold);
        ASSERT_TRUE(bitwise_equal(unstrided(c_buf, m, n, ldc, 1),
                                  fold ? folded : product))
            << "m=" << m << " k=" << k << " n=" << n << " fold=" << fold;
      }
    }
  });
}

// C += A^T * B in place against C0 + the scalar ikj loop's product, with
// B's rows ldb = n + 2 floats apart and C one float past a panel-aligned
// start.
TEST(Ops, MatmulTnFoldBitwiseMatchesScalarReference) {
  const std::vector<GemmShape> shapes = kernel_shapes();
  on_1_and_4_lanes([&] {
    Rng rng(41);
    for (const auto& [m, k, n] : shapes) {
      // A is (k x m), read transposed: C is (m x n).
      const Tensor at = signed_with_zeros({k, m}, rng);
      const Tensor b = Tensor::uniform({k, n}, rng, -3.f, 3.f);
      const Tensor c0 = signed_with_zeros({m, n}, rng);
      Tensor expect = c0;
      expect += matmul_tn_scalar_reference(at, b);
      const std::size_t ldb = n + 2;
      const std::vector<float> b_buf = strided_copy(b, ldb, 0);
      std::vector<float> c_buf = strided_copy(c0, n, 1);
      matmul_tn_fold({at.raw(), m, 0}, {b_buf.data(), ldb, 0}, k, m, n, 1,
                     c_buf.data() + 1);
      ASSERT_TRUE(bitwise_equal(unstrided(c_buf, m, n, n, 1), expect))
          << "m=" << m << " k=" << k << " n=" << n;
    }
  });
}

// Matrices of several steps laid out like an (N, T, F) sequence: row i of
// step t at i * ld + t * step, with a one-float gap after each step's row
// and two after each row of steps, all NaN (as is everything before
// offset), so a read outside the rows would carry NaN into C.
struct StepLayout {
  std::vector<float> buf;
  std::size_t ld, step;
};

StepLayout step_layout(const std::vector<Tensor>& steps, std::size_t offset) {
  const std::size_t rows = steps[0].dim(0), cols = steps[0].dim(1);
  StepLayout out{{}, steps.size() * (cols + 1) + 2, cols + 1};
  out.buf.assign(offset + rows * out.ld,
                 std::numeric_limits<float>::quiet_NaN());
  for (std::size_t t = 0; t < steps.size(); ++t)
    for (std::size_t i = 0; i < rows; ++i)
      std::copy(steps[t].raw() + i * cols, steps[t].raw() + (i + 1) * cols,
                out.buf.data() + offset + i * out.ld + t * out.step);
  return out;
}

// C += A_t^T B_t over steps t, last step first, in one call, against one
// single-step fold per step in descending t and against C0 plus the scalar
// ikj loop's product, `+=` step by step. A and B are strided step layouts,
// and C starts one float past a panel-aligned start.
TEST(Ops, MatmulTnFoldStepsMatchesPerStepFoldsInDescendingOrder) {
  on_1_and_4_lanes([] {
    Rng rng(47);
    for (std::size_t steps = 1; steps <= 17; ++steps) {
      for (const std::size_t m : {1u, 5u, 16u}) {
        for (const std::size_t k : {1u, 7u, 9u, 33u, 128u}) {
          for (const std::size_t n : {1u, 8u, 9u, 33u}) {
            std::vector<Tensor> as, bs;
            for (std::size_t t = 0; t < steps; ++t) {
              as.push_back(signed_with_zeros({m, k}, rng));
              bs.push_back(Tensor::uniform({m, n}, rng, -3.f, 3.f));
            }
            const StepLayout a = step_layout(as, 0);
            const StepLayout b = step_layout(bs, 3);
            const Tensor c0 = signed_with_zeros({k, n}, rng);
            Tensor expect = c0;
            std::vector<float> single = strided_copy(c0, n, 1);
            for (std::size_t t = steps; t-- > 0;) {
              expect += matmul_tn_scalar_reference(as[t], bs[t]);
              matmul_tn_fold({a.buf.data() + t * a.step, a.ld, 0},
                             {b.buf.data() + 3 + t * b.step, b.ld, 0}, m, k,
                             n, 1, single.data() + 1);
            }
            std::vector<float> got = strided_copy(c0, n, 1);
            matmul_tn_fold({a.buf.data(), a.ld, a.step},
                           {b.buf.data() + 3, b.ld, b.step}, m, k, n, steps,
                           got.data() + 1);
            const Tensor got_t = unstrided(got, k, n, n, 1);
            ASSERT_TRUE(bitwise_equal(got_t, unstrided(single, k, n, n, 1)))
                << "steps=" << steps << " m=" << m << " k=" << k
                << " n=" << n;
            ASSERT_TRUE(bitwise_equal(got_t, expect))
                << "steps=" << steps << " m=" << m << " k=" << k
                << " n=" << n;
          }
        }
      }
    }
  });
}

// The scalar double-accumulator loop matmul_nt must reproduce bit for bit:
// each C[i][j] sums float products in double, in ascending k.
Tensor matmul_nt_scalar_reference(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), r = b.dim(0);
  Tensor c({m, r});
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.raw() + i * k;
    for (std::size_t j = 0; j < r; ++j) {
      const float* brow = b.raw() + j * k;
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(arow[kk]) * brow[kk];
      c.raw()[i * r + j] = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(Ops, MatmulNtBitwiseMatchesScalarReference) {
  // C is (m x n) with B (n x k); k = 0 is the empty reduction.
  std::vector<GemmShape> shapes = kernel_shapes();
  for (const std::size_t n : {1u, 9u, 128u}) shapes.push_back({16, 0, n});
  on_1_and_4_lanes([&] {
    Rng rng(4);
    for (const auto& [m, k, n] : shapes) {
      const Tensor a = signed_with_zeros({m, k}, rng);
      const Tensor b = Tensor::uniform({n, k}, rng, -3.f, 3.f);
      ASSERT_TRUE(bitwise_equal(matmul_nt(a, b),
                                matmul_nt_scalar_reference(a, b)))
          << "m=" << m << " k=" << k << " n=" << n;
    }
  });
}

// C = A * B^T through one packed handle, with A's rows lda floats apart:
// each output is the scalar double dot product rounded to float.
Tensor matmul_nt_packed_reference(const float* a, std::size_t lda,
                                  std::size_t m, const Tensor& b) {
  const std::size_t k = b.dim(1), r = b.dim(0);
  Tensor c({m, r});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < r; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a[i * lda + kk]) * b.raw()[j * k + kk];
      c.raw()[i * r + j] = static_cast<float>(acc);
    }
  }
  return c;
}

// m covers every row remainder of both double tiles and the edges of the
// 64-row widening chunks; r every panel remainder; k includes the empty
// reduction.
std::vector<std::size_t> nt_rows_sweep() {
  std::vector<std::size_t> ms = {63, 64, 65, 130};
  for (std::size_t m = 1; m <= 9; ++m) ms.push_back(m);
  return ms;
}
constexpr std::size_t kNtCols[] = {1, 7, 8, 9, 33, 128};
constexpr std::size_t kNtDepths[] = {0, 1, 8, 32, 33};

// A (m x k) with its rows lda floats apart and NaN in the gap, so a read
// past k would show.
Tensor nan_gapped(std::size_t m, std::size_t k, std::size_t lda, Rng& rng) {
  Tensor a = signed_with_zeros({m, lda}, rng);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t q = k; q < lda; ++q)
      a[i * lda + q] = std::numeric_limits<float>::quiet_NaN();
  return a;
}

TEST(Ops, MatmulNtPackedMatchesScalarReference) {
  // A's rows sit lda = k + 3 floats apart; one handle serves three A, each
  // over a C holding signed values and zeros.
  on_1_and_4_lanes([&] {
    Rng rng(29);
    for (const std::size_t m : nt_rows_sweep()) {
      for (const std::size_t r : kNtCols) {
        for (const std::size_t k : kNtDepths) {
          const Tensor b = Tensor::uniform({r, k}, rng, -3.f, 3.f);
          const NtPacked packed(b);
          const std::size_t lda = k + 3;
          for (int use = 0; use < 3; ++use) {
            const Tensor a = nan_gapped(m, k, lda, rng);
            Tensor got = signed_with_zeros({m, r}, rng);
            matmul_nt(a.raw(), lda, m, packed, got.raw());
            ASSERT_TRUE(bitwise_equal(
                got, matmul_nt_packed_reference(a.raw(), lda, m, b)))
                << "m=" << m << " r=" << r << " k=" << k << " use=" << use;
          }
        }
      }
    }
  });
}

// The pair kernel against its definition: matmul_nt(A1, B1) stored, then
// `+=` matmul_nt(A2, B2) as a Tensor, one float add per output. A1 and A2
// sit in one buffer with NaN gaps, as an LSTM step reads x_t and h.
TEST(Ops, MatmulNtPairMatchesStorePlusTensorAdd) {
  on_1_and_4_lanes([&] {
    Rng rng(43);
    for (const std::size_t m : nt_rows_sweep()) {
      for (const std::size_t r : kNtCols) {
        for (const std::size_t k1 : kNtDepths) {
          for (const std::size_t k2 : kNtDepths) {
            const Tensor b1 = Tensor::uniform({r, k1}, rng, -3.f, 3.f);
            const Tensor b2 = Tensor::uniform({r, k2}, rng, -3.f, 3.f);
            const std::size_t lda1 = k1 + 2, lda2 = k2 + 5;
            const Tensor a1 = nan_gapped(m, k1, lda1, rng);
            const Tensor a2 = nan_gapped(m, k2, lda2, rng);
            Tensor expect = matmul_nt_packed_reference(a1.raw(), lda1, m, b1);
            expect += matmul_nt_packed_reference(a2.raw(), lda2, m, b2);
            Tensor got = signed_with_zeros({m, r}, rng);
            matmul_nt_pair(a1.raw(), lda1, NtPacked(b1), a2.raw(), lda2,
                           NtPacked(b2), m, got.raw());
            ASSERT_TRUE(bitwise_equal(got, expect))
                << "m=" << m << " r=" << r << " k1=" << k1 << " k2=" << k2;
          }
        }
      }
    }
  });
}

// Floats of every magnitude class that stresses an fma against a separate
// multiply and add: near +-FLT_MAX (a float product would overflow),
// 2^-126 and below (it would underflow or go subnormal), subnormals, and
// full 24-bit significands (it would round), with random signs.
float extreme_float(Rng& rng) {
  static const int kExponents[] = {127, 126, 100, 1, 0, -1, -60,
                                   -125, -126, -130, -140, -149};
  const int e = kExponents[rng.uniform_int(std::size(kExponents))];
  const float significand =
      std::min(rng.uniform_float(1.f, 2.f), std::nextafter(2.f, 1.f));
  const float x = std::ldexp(significand, e);
  return rng.uniform() < 0.5 ? -x : x;
}

TEST(Ops, MatmulNtExactUnderFma) {
  // Extreme exponents in A and B, and products that cancel to zero: each
  // row of A is followed by its copy, and column q + 1 of B negates column
  // q at odd q, so pairs of products cancel exactly. Whichever tile runs,
  // matmul_nt must equal the scalar loop (a separate multiply and add) bit
  // for bit. Conv.WeightGradMatchesPerSampleScalarFoldBitwise runs the
  // segment fold of the same double tile over extreme values.
  on_1_and_4_lanes([] {
    Rng rng(31);
    for (const std::size_t k : {2u, 6u, 17u, 64u}) {
      for (const std::size_t m : {1u, 5u, 12u}) {
        for (const std::size_t r : {3u, 8u, 19u}) {
          Tensor a({m, k});
          Tensor b({r, k});
          for (std::size_t i = 0; i < a.numel(); ++i) a[i] = extreme_float(rng);
          for (std::size_t i = 0; i < b.numel(); ++i) b[i] = extreme_float(rng);
          for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t q = 1; q + 1 < k; q += 2) {
              a[i * k + q + 1] = a[i * k + q];
            }
          }
          for (std::size_t j = 0; j < r; ++j) {
            for (std::size_t q = 1; q + 1 < k; q += 2) {
              b[j * k + q + 1] = -b[j * k + q];
            }
            if (j % 3 == 0) b[j * k] = 0.f;  // row j may cancel to +0
          }
          ASSERT_TRUE(bitwise_equal(matmul_nt(a, b),
                                    matmul_nt_scalar_reference(a, b)))
              << "matmul_nt m=" << m << " k=" << k << " r=" << r;
        }
      }
    }
  });
}

// True when GLIBC_TUNABLES masks the CPU feature `name` ("-NAME" in the
// hwcaps list).
bool tunables_mask(const std::string& name) {
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  if (tunables == nullptr) return false;
  const std::string text(tunables);
  const std::string item = "-" + name;
  for (std::size_t at = text.find(item); at != std::string::npos;
       at = text.find(item, at + 1)) {
    const std::size_t end = at + item.size();
    const bool starts = at > 0 && (text[at - 1] == '=' || text[at - 1] == ',');
    if (starts && (end == text.size() || text[end] == ',' || text[end] == ':'))
      return true;
  }
  return false;
}

// The tile set follows glibc's AVX2 and FMA bits, so a tunable that masks
// either (the release CI job's later runs) selects the baseline tiles.
TEST(Ops, GemmSimdPathFollowsGlibcTunable) {
  const std::string path = gemm_simd_path();
  EXPECT_TRUE(path == "avx2" || path == "sse2") << path;
  if (tunables_mask("AVX2") || tunables_mask("FMA")) EXPECT_EQ(path, "sse2");
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor logits = Tensor::uniform({8, 10}, rng, -5.f, 5.f);
  Tensor p = softmax_rows(logits);
  for (std::size_t i = 0; i < 8; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_GT(p.at(i, j), 0.f);
      sum += p.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxNumericallyStable) {
  Tensor logits({1, 3}, std::vector<float>{1000.f, 1000.f, 1000.f});
  Tensor p = softmax_rows(logits);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(p[j], 1.f / 3.f, 1e-5f);
}

TEST(Ops, SoftmaxRowsRejectsEmptyRows) {
  EXPECT_THROW(softmax_rows(Tensor({3, 0})), Error);
}

TEST(Ops, ArgmaxRows) {
  Tensor t({2, 3}, std::vector<float>{0, 5, 2, 9, 1, 1});
  const auto idx = argmax_rows(t);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 0u);
}

TEST(Ops, AddBiasRows) {
  Tensor t({2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor b({2}, std::vector<float>{10, 20});
  add_bias_rows(t, b);
  EXPECT_EQ(t.at(0, 0), 11.f);
  EXPECT_EQ(t.at(1, 1), 24.f);
}

TEST(Conv, GeomOutputSizes) {
  ConvGeom g{3, 32, 32, 5, 1, 0};
  EXPECT_EQ(g.out_h(), 28u);
  g.pad = 1;
  g.kernel = 3;
  EXPECT_EQ(g.out_h(), 32u);
  g.stride = 2;
  EXPECT_EQ(g.out_h(), 16u);
}

TEST(Conv, Im2colIdentityKernel) {
  // 1x1 kernel, stride 1: im2col is the identity layout.
  ConvGeom g{2, 3, 3, 1, 1, 0};
  std::vector<float> img(18);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  Tensor cols = im2col(img.data(), g);
  ASSERT_EQ(cols.shape(), (Shape{2, 9}));
  for (std::size_t i = 0; i < 18; ++i) EXPECT_EQ(cols[i], static_cast<float>(i));
}

TEST(Conv, Im2colKnownPatch) {
  // Single channel 3x3 image, 2x2 kernel, stride 1 -> 4 columns.
  ConvGeom g{1, 3, 3, 2, 1, 0};
  std::vector<float> img = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  Tensor cols = im2col(img.data(), g);
  ASSERT_EQ(cols.shape(), (Shape{4, 4}));
  // Column 0 is the top-left patch [1,2,4,5] spread over rows.
  EXPECT_EQ(cols.at(0, 0), 1.f);
  EXPECT_EQ(cols.at(1, 0), 2.f);
  EXPECT_EQ(cols.at(2, 0), 4.f);
  EXPECT_EQ(cols.at(3, 0), 5.f);
  // Column 3 is the bottom-right patch [5,6,8,9].
  EXPECT_EQ(cols.at(0, 3), 5.f);
  EXPECT_EQ(cols.at(3, 3), 9.f);
}

TEST(Conv, PaddingYieldsZeros) {
  ConvGeom g{1, 2, 2, 3, 1, 1};
  std::vector<float> img = {1, 2, 3, 4};
  Tensor cols = im2col(img.data(), g);
  ASSERT_EQ(cols.shape(), (Shape{9, 4}));
  // Top-left output position, kernel offset (0,0) reads padded zero.
  EXPECT_EQ(cols.at(0, 0), 0.f);
  // Center taps read real pixels.
  EXPECT_EQ(cols.at(4, 0), 1.f);
}

TEST(Conv, Col2imIsAdjointOfIm2col) {
  // Adjoint test: <im2col(x), y> == <x, col2im(y)> for random x, y.
  Rng rng(6);
  ConvGeom g{2, 5, 5, 3, 2, 1};
  std::vector<float> x(2 * 5 * 5);
  for (auto& v : x) v = rng.uniform_float(-1.f, 1.f);
  Tensor cols = im2col(x.data(), g);
  Tensor y = Tensor::uniform(cols.shape(), rng);
  // lhs = <im2col(x), y>
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i)
    lhs += static_cast<double>(cols[i]) * y[i];
  // rhs = <x, col2im(y)>
  std::vector<float> back(x.size(), 0.f);
  col2im(y, g, back.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Conv, Im2colIntoWithLeadingDimensionMatchesIm2col) {
  // Two images side by side in one matrix with ld = 2 * oh * ow, plus a
  // sentinel column past them that must stay untouched.
  Rng rng(12);
  for (const ConvGeom g : {ConvGeom{2, 5, 6, 3, 2, 1}, ConvGeom{3, 4, 4, 1, 1, 0},
                           ConvGeom{1, 7, 5, 3, 1, 1}}) {
    const std::size_t rows = g.channels * g.kernel * g.kernel;
    const std::size_t plane = g.out_h() * g.out_w();
    const std::size_t ld = 2 * plane + 1;
    const Tensor x = Tensor::uniform({2, g.channels, g.in_h, g.in_w}, rng);
    const std::size_t image = g.channels * g.in_h * g.in_w;
    std::vector<float> cols(rows * ld, 7.f);
    for (std::size_t s = 0; s < 2; ++s)
      im2col_into(x.raw() + s * image, g, cols.data() + s * plane, ld);
    for (std::size_t s = 0; s < 2; ++s) {
      const Tensor single = im2col(x.raw() + s * image, g);
      for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(std::memcmp(cols.data() + r * ld + s * plane,
                              single.raw() + r * plane, plane * sizeof(float)),
                  0)
            << "sample " << s << " row " << r;
      }
    }
    for (std::size_t r = 0; r < rows; ++r) EXPECT_EQ(cols[r * ld + 2 * plane], 7.f);
  }
}

TEST(Conv, Col2imFromWithLeadingDimensionIsAdjoint) {
  // <im2col_into(x), y> == <x, col2im_from(y)> with y read at ld > oh*ow,
  // and col2im_from of a column block equals col2im of the same block.
  Rng rng(13);
  const ConvGeom g{2, 6, 5, 3, 2, 1};
  const std::size_t rows = g.channels * g.kernel * g.kernel;
  const std::size_t plane = g.out_h() * g.out_w();
  const std::size_t ld = 3 * plane;
  const std::size_t image = g.channels * g.in_h * g.in_w;
  const Tensor x = Tensor::uniform({image}, rng);
  const Tensor y = Tensor::uniform({rows, ld}, rng);
  std::vector<float> cols(rows * ld, 0.f);
  im2col_into(x.raw(), g, cols.data() + plane, ld);
  double lhs = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < plane; ++i) {
      lhs += static_cast<double>(cols[r * ld + plane + i]) * y[r * ld + plane + i];
    }
  }
  std::vector<float> back(image, 0.f);
  col2im_from(y.raw() + plane, ld, g, back.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < image; ++i)
    rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);

  Tensor block({rows, plane});
  for (std::size_t r = 0; r < rows; ++r) {
    std::memcpy(block.raw() + r * plane, y.raw() + r * ld + plane,
                plane * sizeof(float));
  }
  std::vector<float> via_tensor(image, 0.f);
  col2im(block, g, via_tensor.data());
  EXPECT_EQ(std::memcmp(back.data(), via_tensor.data(), image * sizeof(float)),
            0);
}

// conv2d_weight_grad must fold gy_s * P_s^T into dW sample by sample, as
// the lowered form does: each element a double dot product over the
// sample's output positions (P_s from the scalar im2col), rounded to float
// and added with one float add, onto a dW holding -0 and non-zero values.
// Its segment fold packs runs of samples per column block of 8 patch rows:
// 1x1 and 4x4 outputs put up to 17 samples in one run, 18x18 outputs one
// sample per run. 27 patch rows end in a partial block, 65 output channels
// span two widening chunks of A, 4 lanes split row tiles and blocks, and
// the extreme-value pass checks the AVX2 tile's FMA against the separate
// multiply and add.
TEST(Conv, WeightGradMatchesPerSampleScalarFoldBitwise) {
  on_1_and_4_lanes([] {
    Rng rng(11);
    const ConvGeom geoms[] = {{3, 1, 1, 1, 1, 0},
                              {3, 4, 4, 3, 1, 1},
                              {2, 9, 7, 2, 2, 0},
                              {1, 18, 18, 3, 1, 1}};
    for (const ConvGeom& g : geoms) {
      const ConvTaps taps(g);
      const std::size_t rows = taps.rows.size();
      const std::size_t len = g.out_h() * g.out_w();
      const std::size_t image = g.channels * g.in_h * g.in_w;
      for (const bool extreme : {false, true}) {
        for (const std::size_t n : {1u, 3u, 17u}) {
          for (const std::size_t out_c : {1u, 5u, 8u, 65u}) {
            Tensor images = signed_with_zeros({n, image}, rng);
            Tensor gy = signed_with_zeros({n, out_c * len}, rng);
            if (extreme) {
              for (std::size_t i = 0; i < images.numel(); ++i)
                images[i] = extreme_float(rng);
              for (std::size_t i = 0; i < gy.numel(); ++i)
                gy[i] = extreme_float(rng);
            }
            Tensor dw0({out_c, rows});
            for (std::size_t i = 0; i < dw0.numel(); ++i)
              dw0[i] = i % 2 == 0 ? -0.f : rng.uniform_float(-1.f, 1.f);
            Tensor expect = dw0;
            for (std::size_t s = 0; s < n; ++s) {
              const Tensor cols = im2col(images.raw() + s * image, g);
              const float* gy_s = gy.raw() + s * out_c * len;
              for (std::size_t o = 0; o < out_c; ++o) {
                for (std::size_t row = 0; row < rows; ++row) {
                  double acc = 0.0;
                  for (std::size_t q = 0; q < len; ++q) {
                    acc += static_cast<double>(gy_s[o * len + q]) *
                           cols[row * len + q];
                  }
                  expect[o * rows + row] += static_cast<float>(acc);
                }
              }
            }
            std::vector<float> padded(n * taps.padded_image());
            conv2d_pad(images.raw(), n, taps, padded.data());
            Tensor got = dw0;
            conv2d_weight_grad(gy.raw(), out_c, padded.data(), n, taps,
                               got.raw());
            ASSERT_TRUE(bitwise_equal(got, expect))
                << "in=" << g.in_h << "x" << g.in_w << " k=" << g.kernel
                << " n=" << n << " out_c=" << out_c
                << " extreme=" << extreme;
          }
        }
      }
    }
  });
}

// The span kernels must equal libm bit for bit (NaN: any NaN): apf::tanh
// libm's tanhf, apf::exp its expf and apf::sigmoid 1.f / (1.f + expf(-x)).
// The full 2^32 sweeps are activations_sweep_test (label slow); these run
// in every preset and cover a stride of all patterns plus every edge.
using SpanKernel = void (*)(std::span<const float>, std::span<float>);

float libm_tanh(float x) { return std::tanh(x); }
float libm_exp(float x) { return std::exp(x); }
float libm_sigmoid(float x) { return 1.f / (1.f + std::exp(-x)); }

void expect_matches_libm(SpanKernel kernel, float (*reference)(float),
                         const std::vector<std::uint32_t>& patterns) {
  std::vector<float> x(patterns.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::bit_cast<float>(patterns[i]);
  std::vector<float> y(x.size());
  kernel(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float want = reference(x[i]);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(y[i])) << std::hex << patterns[i];
    } else {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(y[i]),
                std::bit_cast<std::uint32_t>(want))
          << "x bits 0x" << std::hex << patterns[i];
    }
  }
}

std::vector<std::uint32_t> stride_of_all_patterns() {
  std::vector<std::uint32_t> patterns;
  for (std::uint64_t b = 0; b <= 0xffffffffULL; b += 65537)
    patterns.push_back(static_cast<std::uint32_t>(b));
  return patterns;
}

// The 17 patterns centred on each |x| bit pattern, with both signs.
std::vector<std::uint32_t> around(std::initializer_list<std::uint32_t> edges) {
  std::vector<std::uint32_t> patterns;
  for (const std::uint32_t t : edges) {
    for (std::uint32_t d = 0; d <= 16; ++d) {
      patterns.push_back(t - 8 + d);
      patterns.push_back((t - 8 + d) | 0x80000000u);
    }
  }
  return patterns;
}

// Lengths 0..40, 63..65 and 130 cross every vector and block edge of both
// lane counts (exp and sigmoid run blocks of 8 or 16 floats, tanh of 32 or
// 64); offsets 1..3 leave the spans off any vector boundary, and each
// length also runs in place.
void expect_any_length_offset_and_in_place(SpanKernel kernel,
                                           float (*reference)(float)) {
  Rng rng(77);
  std::vector<float> src(133);
  for (float& v : src) v = static_cast<float>(rng.uniform(-24.0, 24.0));
  std::vector<std::size_t> lengths = {63, 64, 65, 130};
  for (std::size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    for (std::size_t offset = 0; offset <= 3; ++offset) {
      const std::span<const float> x(src.data() + offset, n);
      std::vector<float> out(n + 2, 7.f);
      kernel(x, std::span<float>(out.data() + 1, n));
      EXPECT_EQ(out.front(), 7.f) << n;
      EXPECT_EQ(out.back(), 7.f) << n;
      std::vector<float> in_place(x.begin(), x.end());
      kernel(in_place, in_place);
      for (std::size_t i = 0; i < n; ++i) {
        const auto want = std::bit_cast<std::uint32_t>(reference(x[i]));
        EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i + 1]), want) << n;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(in_place[i]), want) << n;
      }
    }
  }
  std::vector<float> three(3);
  EXPECT_THROW(kernel(src, three), Error);
}

TEST(TanhKernel, MatchesLibmOnAStrideOfAllPatterns) {
  expect_matches_libm(apf::tanh, libm_tanh, stride_of_all_patterns());
}

TEST(TanhKernel, MatchesLibmAroundEveryBranchThreshold) {
  // tanhf's |x| cut points (2^-55, 1, 22), then expm1f's on its argument
  // 2|x| (2^-25, 0.5 ln2, 1.5 ln2, 27 ln2), each halved into |x| bits.
  expect_matches_libm(
      apf::tanh, libm_tanh,
      around({0x24000000, 0x3f800000, 0x41b00000, 0x33000000 - 0x00800000,
              0x3eb17218 - 0x00800000, 0x3f851592 - 0x00800000,
              0x4195b844 - 0x00800000}));
}

TEST(TanhKernel, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> x = {0.f, -0.f, inf, -inf,
                          std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN(), 1e30f,
                          -1e30f};
  std::vector<float> y(x.size());
  apf::tanh(x, y);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(y[0]), 0x00000000u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(y[1]), 0x80000000u);
  EXPECT_EQ(y[2], 1.f);
  EXPECT_EQ(y[3], -1.f);
  EXPECT_TRUE(std::isnan(y[4]));
  EXPECT_TRUE(std::isnan(y[5]));
  EXPECT_EQ(y[6], 1.f);
  EXPECT_EQ(y[7], -1.f);
}

TEST(TanhKernel, AnyLengthOffsetAndInPlace) {
  expect_any_length_offset_and_in_place(apf::tanh, libm_tanh);
}

// expf's edges: the |x| = 20 hand-off to libm, the two inputs in
// 20 <= |x| < 89 at which glibc 2.36's FMA and non-FMA expf differ (32.56
// and -63.10, found by sweeping; a lane there must go to libm), +-0 with
// the smallest denormals, the largest denormals, the largest float with
// +-inf, the quiet NaNs, overflow past log(2^128) = 88.72 and underflow
// below log(2^-149) = -103.28 and log(2^-150) = -103.97 (each with both
// signs).
const std::vector<std::uint32_t> kExpEdges = around(
    {0x41a00000, 0x4202422f, 0x427c65d9, 0x00000008, 0x007ffff8,
     0x7f800000 - 8, 0x7fc00000,
     std::bit_cast<std::uint32_t>(0x1.62e42ep6f),
     std::bit_cast<std::uint32_t>(0x1.9d1d9ep6f),
     std::bit_cast<std::uint32_t>(0x1.9fe368p6f)});

TEST(ExpKernel, MatchesLibmOnAStrideOfAllPatterns) {
  expect_matches_libm(apf::exp, libm_exp, stride_of_all_patterns());
}

TEST(ExpKernel, MatchesLibmAtEveryEdge) {
  expect_matches_libm(apf::exp, libm_exp, kExpEdges);
}

TEST(ExpKernel, AnyLengthOffsetAndInPlace) {
  expect_any_length_offset_and_in_place(apf::exp, libm_exp);
}

// Each of the 32 entries of the 2^(i/32) table, in each slot of a
// 16-float block (a whole AVX2 block, two baseline blocks): x near
// (32c + i) ln2 / 32, whose rounded x * 32 / ln2 has i = k % 32, for c of
// both signs, the slot's neighbours drawn from [-8, 8].
std::vector<std::uint32_t> every_table_index_in_every_slot() {
  Rng rng(53);
  std::vector<std::uint32_t> patterns;
  for (std::size_t slot = 0; slot < 16; ++slot) {
    for (int i = 0; i < 32; ++i) {
      for (const int c : {-3, 0, 2}) {
        for (std::size_t l = 0; l < 16; ++l) {
          float x = static_cast<float>(rng.uniform(-8.0, 8.0));
          if (l == slot) {
            x = static_cast<float>((32 * c + i + rng.uniform(-0.4, 0.4)) *
                                   0.6931471805599453 / 32);
          }
          patterns.push_back(std::bit_cast<std::uint32_t>(x));
        }
      }
    }
  }
  return patterns;
}

// A lane that libm must redo (|x| >= 20 either side of the hand-off, the
// two inputs where glibc's expf builds differ, overflow, underflow, +-inf
// and NaN) in each slot of a 16-float block of ordinary inputs, then in
// each slot of a zero-padded tail.
void expect_libm_lane_in_every_slot(SpanKernel kernel,
                                    float (*reference)(float)) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {20.f,
                            -20.f,
                            std::nextafter(20.f, 0.f),
                            std::bit_cast<float>(0x4202422fu),
                            std::bit_cast<float>(0xc27c65d9u),
                            100.f,
                            -120.f,
                            inf,
                            -inf,
                            std::numeric_limits<float>::quiet_NaN()};
  Rng rng(59);
  for (const float special : specials) {
    for (std::size_t slot = 0; slot < 16; ++slot) {
      for (const std::size_t n : {std::size_t{16}, 16 + slot + 1}) {
        std::vector<float> x(n);
        for (float& v : x) v = static_cast<float>(rng.uniform(-8.0, 8.0));
        x[n == 16 ? slot : 16 + slot] = special;
        std::vector<float> y(n);
        kernel(x, y);
        for (std::size_t i = 0; i < n; ++i) {
          const float want = reference(x[i]);
          if (std::isnan(want)) {
            EXPECT_TRUE(std::isnan(y[i])) << "slot " << slot << " n " << n;
          } else {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(y[i]),
                      std::bit_cast<std::uint32_t>(want))
                << "x " << x[i] << " at " << i << ", special " << special
                << " in slot " << slot << ", n " << n;
          }
        }
      }
    }
  }
}

TEST(ExpKernel, EveryTableIndexInEverySlot) {
  expect_matches_libm(apf::exp, libm_exp, every_table_index_in_every_slot());
}

TEST(ExpKernel, LibmLaneInEverySlot) {
  expect_libm_lane_in_every_slot(apf::exp, libm_exp);
}

TEST(SigmoidKernel, MatchesLibmFormulaOnAStrideOfAllPatterns) {
  expect_matches_libm(apf::sigmoid, libm_sigmoid, stride_of_all_patterns());
}

TEST(SigmoidKernel, MatchesLibmFormulaAtEveryEdge) {
  expect_matches_libm(apf::sigmoid, libm_sigmoid, kExpEdges);
}

TEST(SigmoidKernel, AnyLengthOffsetAndInPlace) {
  expect_any_length_offset_and_in_place(apf::sigmoid, libm_sigmoid);
}

TEST(SigmoidKernel, EveryTableIndexInEverySlot) {
  // sigmoid looks up exp(-x): the same indices, mirrored.
  expect_matches_libm(apf::sigmoid, libm_sigmoid,
                      every_table_index_in_every_slot());
}

TEST(SigmoidKernel, LibmLaneInEverySlot) {
  expect_libm_lane_in_every_slot(apf::sigmoid, libm_sigmoid);
}

}  // namespace
}  // namespace apf
