#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/activations.h"
#include "tensor/conv.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/error.h"
#include "util/rng.h"

namespace apf {
namespace {

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

TEST(Tensor, AddScaled) {
  Tensor a({2}, std::vector<float>{1, 1});
  Tensor b({2}, std::vector<float>{2, 4});
  a.add_scaled(b, 0.5f);
  EXPECT_EQ(a[0], 2.f);
  EXPECT_EQ(a[1], 3.f);
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
  Tensor h = hadamard(a, b);
  EXPECT_EQ(h[2], 18.f);
  EXPECT_FLOAT_EQ(dot(a, b), 32.f);
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

TEST(Ops, MatmulAndMatmulTnBitwiseMatchScalarReference) {
  // Output rows and columns that are not multiples of the 4 x 8 tile,
  // n < 8, k = 1, and a reduction long enough to round differently if
  // reassociated.
  Rng rng(3);
  for (const std::size_t m : {1u, 3u, 4u, 5u, 7u, 9u, 13u}) {
    for (const std::size_t n : {1u, 3u, 7u, 8u, 9u, 17u, 30u}) {
      for (const std::size_t k : {1u, 2u, 9u, 100u}) {
        const Tensor a = signed_with_zeros({m, k}, rng);
        const Tensor b = Tensor::uniform({k, n}, rng, -3.f, 3.f);
        EXPECT_TRUE(bitwise_equal(matmul(a, b), matmul_scalar_reference(a, b)))
            << "matmul m=" << m << " k=" << k << " n=" << n;
        // matmul_tn reads A (k x m here) transposed: C is (m x n).
        const Tensor at = signed_with_zeros({k, m}, rng);
        const Tensor bt = Tensor::uniform({k, n}, rng, -3.f, 3.f);
        EXPECT_TRUE(bitwise_equal(matmul_tn(at, bt),
                                  matmul_tn_scalar_reference(at, bt)))
            << "matmul_tn m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(Ops, MatmulNtFoldSegmentsMatchesPerSegmentScalarFold) {
  // C += float(double dot over each segment), segments folded in order,
  // onto a non-zero C; r and m end in partial tiles.
  Rng rng(11);
  for (const std::size_t len : {1u, 4u, 9u}) {
    for (const std::size_t segments : {1u, 5u}) {
      const std::size_t m = 5, r = 11;
      const Tensor a = signed_with_zeros({segments, m, len}, rng);
      const Tensor b = Tensor::uniform({r, segments * len}, rng, -3.f, 3.f);
      const Tensor c0 = Tensor::uniform({m, r}, rng);
      Tensor expect = c0;
      for (std::size_t s = 0; s < segments; ++s) {
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < r; ++j) {
            double acc = 0.0;
            for (std::size_t q = 0; q < len; ++q) {
              acc += static_cast<double>(a[(s * m + i) * len + q]) *
                     b[j * segments * len + s * len + q];
            }
            expect[i * r + j] += static_cast<float>(acc);
          }
        }
      }
      Tensor got = c0;
      matmul_nt_fold_segments(a.raw(), b.raw(), m, r, segments, len,
                              got.raw());
      EXPECT_TRUE(bitwise_equal(got, expect))
          << "len=" << len << " segments=" << segments;
    }
  }
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
  // r covers single, partial and multiple 8-row panels; k = 0 is the empty
  // reduction; m = 67 widens A in a full and a ragged chunk of rows.
  std::vector<std::size_t> rows;
  for (std::size_t r = 1; r <= 17; ++r) rows.push_back(r);
  rows.push_back(27);
  rows.push_back(128);
  Rng rng(4);
  for (const std::size_t r : rows) {
    for (const std::size_t k : {0u, 1u, 8u, 256u}) {
      for (const std::size_t m : {1u, 16u, 67u}) {
        const Tensor a = Tensor::uniform({m, k}, rng, -3.f, 3.f);
        const Tensor b = Tensor::uniform({r, k}, rng, -3.f, 3.f);
        const Tensor expect = matmul_nt_scalar_reference(a, b);
        const Tensor got = matmul_nt(a, b);
        ASSERT_EQ(got.shape(), expect.shape());
        EXPECT_EQ(std::memcmp(got.raw(), expect.raw(),
                              got.numel() * sizeof(float)),
                  0)
            << "m=" << m << " k=" << k << " r=" << r;
      }
    }
  }
}

TEST(Ops, TransposeInvolution) {
  Rng rng(4);
  Tensor a = Tensor::uniform({3, 7}, rng);
  Tensor tt = transpose(transpose(a));
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(tt[i], a[i]);
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

// apf::tanh must equal libm's tanhf bit for bit (NaN: any NaN). The full
// 2^32 sweep is activations_sweep_test (label slow); this one runs in every
// preset and covers a stride of all patterns plus every branch edge.
void expect_tanh_matches_libm(const std::vector<std::uint32_t>& patterns) {
  std::vector<float> x(patterns.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::bit_cast<float>(patterns[i]);
  std::vector<float> y(x.size());
  apf::tanh(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float want = std::tanh(x[i]);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(y[i])) << std::hex << patterns[i];
    } else {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(y[i]),
                std::bit_cast<std::uint32_t>(want))
          << "x bits 0x" << std::hex << patterns[i];
    }
  }
}

TEST(TanhKernel, MatchesLibmOnAStrideOfAllPatterns) {
  std::vector<std::uint32_t> patterns;
  for (std::uint64_t b = 0; b <= 0xffffffffULL; b += 65537)
    patterns.push_back(static_cast<std::uint32_t>(b));
  expect_tanh_matches_libm(patterns);
}

TEST(TanhKernel, MatchesLibmAroundEveryBranchThreshold) {
  // tanhf's |x| cut points (2^-55, 1, 22), then expm1f's on its argument
  // 2|x| (2^-25, 0.5 ln2, 1.5 ln2, 27 ln2), each halved into |x| bits.
  const std::uint32_t thresholds[] = {
      0x24000000, 0x3f800000, 0x41b00000, 0x33000000 - 0x00800000,
      0x3eb17218 - 0x00800000, 0x3f851592 - 0x00800000,
      0x4195b844 - 0x00800000};
  std::vector<std::uint32_t> patterns;
  for (const std::uint32_t t : thresholds) {
    for (std::uint32_t d = 0; d <= 16; ++d) {
      patterns.push_back(t - 8 + d);
      patterns.push_back((t - 8 + d) | 0x80000000u);
    }
  }
  expect_tanh_matches_libm(patterns);
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
  Rng rng(77);
  std::vector<float> src(16);
  for (float& v : src) v = static_cast<float>(rng.uniform(-4.0, 4.0));
  for (std::size_t n = 0; n <= 9; ++n) {
    // Offset 1 leaves the spans off any 16-byte boundary.
    for (std::size_t offset : {0, 1}) {
      const std::span<const float> x(src.data() + offset, n);
      std::vector<float> out(n + 2, 7.f);
      apf::tanh(x, std::span<float>(out.data() + 1, n));
      EXPECT_EQ(out.front(), 7.f) << n;
      EXPECT_EQ(out.back(), 7.f) << n;
      std::vector<float> in_place(x.begin(), x.end());
      apf::tanh(in_place, in_place);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t want =
            std::bit_cast<std::uint32_t>(std::tanh(x[i]));
        EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i + 1]), want) << n;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(in_place[i]), want) << n;
      }
    }
  }
  std::vector<float> three(3);
  EXPECT_THROW(apf::tanh(src, three), Error);
}

}  // namespace
}  // namespace apf
