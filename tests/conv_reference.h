// The scalar definition of the lowered convolution the conv kernels must
// reproduce bit for bit: im2col unfolds an image into its patch matrix and
// col2im is its adjoint. Tests only; Conv2d runs the implicit GEMMs of
// tensor/conv.h and never builds this matrix.
//
// The pointer forms take a leading dimension `ld` (the row stride of the
// column matrix), so a batch lowers into one (C*k*k) x (N*out_h*out_w)
// matrix: sample s reads or writes the column block starting at
// cols + s * out_h * out_w, with ld = N * out_h * out_w. The Tensor forms
// are the single-image case, ld = out_h * out_w.
//
// transpose is the explicit A^T the matmul_tn and matmul_nt tests compare
// against; the kernels only ever read A through strides.
#pragma once

#include <cstddef>

#include "tensor/conv.h"
#include "tensor/tensor.h"
#include "util/error.h"

namespace apf::test {

// Calls fn(row, y, x, pixel) for every patch row (c, kh, kw) in that order
// and every output position (y, x) in row-major order; pixel is the flat
// index into the C x H x W image the tap reads, or -1 in the padding.
template <typename Fn>
void for_each_tap(const ConvGeom& g, Fn&& fn) {
  const auto h = static_cast<std::ptrdiff_t>(g.in_h);
  const auto w = static_cast<std::ptrdiff_t>(g.in_w);
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel; ++kw) {
        const std::size_t row = (c * g.kernel + kh) * g.kernel + kw;
        for (std::size_t y = 0; y < g.out_h(); ++y) {
          for (std::size_t x = 0; x < g.out_w(); ++x) {
            const auto iy = static_cast<std::ptrdiff_t>(y * g.stride + kh) -
                            static_cast<std::ptrdiff_t>(g.pad);
            const auto ix = static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                            static_cast<std::ptrdiff_t>(g.pad);
            const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
            fn(row, y, x,
               inside ? (static_cast<std::ptrdiff_t>(c) * h + iy) * w + ix
                      : std::ptrdiff_t{-1});
          }
        }
      }
    }
  }
}

/// Writes the (C*k*k) x (out_h*out_w) patch matrix of one image (C x H x W
/// flat) into `cols`, whose rows are `ld` floats apart (ld >= out_h*out_w).
inline void im2col_into(const float* image, const ConvGeom& g, float* cols,
                        std::size_t ld) {
  const std::size_t ow = g.out_w();
  for_each_tap(g, [&](std::size_t row, std::size_t y, std::size_t x,
                      std::ptrdiff_t pixel) {
    cols[row * ld + y * ow + x] = pixel < 0 ? 0.f : image[pixel];
  });
}

/// Adjoint of im2col_into: accumulates the (C*k*k) x (out_h*out_w) matrix
/// at `cols` (row stride `ld`) into an image buffer of size C*H*W. Each
/// pixel receives its patch entries in (channel, kernel row, kernel column)
/// order.
inline void col2im_from(const float* cols, std::size_t ld, const ConvGeom& g,
                        float* image) {
  const std::size_t ow = g.out_w();
  for_each_tap(g, [&](std::size_t row, std::size_t y, std::size_t x,
                      std::ptrdiff_t pixel) {
    if (pixel >= 0) image[pixel] += cols[row * ld + y * ow + x];
  });
}

/// Unfolds one image to a (C*k*k) x (out_h*out_w) matrix.
inline Tensor im2col(const float* image, const ConvGeom& g) {
  Tensor cols({g.channels * g.kernel * g.kernel, g.out_h() * g.out_w()});
  im2col_into(image, g, cols.raw(), cols.dim(1));
  return cols;
}

/// col2im_from over a (C*k*k) x (out_h*out_w) Tensor (caller zeroes the
/// image buffer first).
inline void col2im(const Tensor& cols, const ConvGeom& g, float* image) {
  APF_CHECK(cols.rank() == 2 &&
            cols.dim(0) == g.channels * g.kernel * g.kernel &&
            cols.dim(1) == g.out_h() * g.out_w());
  col2im_from(cols.raw(), cols.dim(1), g, image);
}

/// 2-D transpose.
inline Tensor transpose(const Tensor& a) {
  APF_CHECK(a.rank() == 2);
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) t[j * m + i] = a[i * n + j];
  return t;
}

}  // namespace apf::test
