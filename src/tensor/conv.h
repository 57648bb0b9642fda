// Implicit-GEMM kernels for 2-D convolutions over NCHW batches.
//
// A convolution is a GEMM against the patch matrix of its input: row
// (c, kh, kw) and column (s, y, x) of that (C*k*k) x (N*out_h*out_w) matrix
// hold pixel (c, y*stride + kh - pad, x*stride + kw - pad) of sample s, or
// zero where the tap falls in the padding. These kernels never build it:
//  - the forward packs its GEMM panels straight from a zero-padded copy of
//    the images (conv2d_pad) and stores its tiles straight into the NCHW
//    output;
//  - the weight gradient packs the fold's panels from the same padded copy;
//  - the input gradient packs its panels straight from the output gradient
//    and adds the W^T * gy tiles of a strip of patch rows (one row tile,
//    over a group of whole samples) into the gradient images, row by row.
// Every value and every sum is the lowered form's, in its order, so every
// output equals, bit for bit:
//
//   forward      out_s    = matmul(W, P_s) (+ bias, one float add)
//   weight_grad  dW      += matmul_nt(gy_s, P_s), per sample in order
//   input_grad   grad_s  += col2im(matmul_tn(W, gy_s))
//
// where P_s is sample s's block of the patch matrix and gy_s its
// (out_c x out_h*out_w) output gradient. Each pixel of grad_s receives its
// patch entries in ascending (c, kh, kw) order, as col2im adds them: the
// strips run in ascending row order, and a strip adds its rows in order.
// (Adding each finished tile at once would not keep that order: two rows
// of one tile reach a pixel through different column panels.) The kernels
// live in ops.cpp beside the GEMM tiles they run (ops.h has the tile and
// determinism rules); the pool splits output tiles, or samples for the
// input gradient, never a sum.
#pragma once

#include <cstddef>
#include <vector>

namespace apf {

/// Geometry of a conv/pool window over one image.
struct ConvGeom {
  std::size_t channels = 0;
  std::size_t in_h = 0, in_w = 0;
  std::size_t kernel = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  friend bool operator==(const ConvGeom&, const ConvGeom&) = default;
};

/// The taps of a geometry, computed once per input shape. For every patch
/// row (c, kh, kw), in that order:
///  - in the unpadded image, output (y, x) reads pixel origin +
///    y*stride*in_w + x*stride when y is in [y_lo, y_hi) and x in
///    [x_lo, x_hi), and padding otherwise;
///  - in the zero-padded image (conv2d_pad), it reads padded +
///    y*stride*padded_w + x*stride, for every (y, x).
struct ConvTaps {
  struct Row {
    std::ptrdiff_t origin = 0;
    std::size_t y_lo = 0, y_hi = 0, x_lo = 0, x_hi = 0;
    std::size_t padded = 0;
  };

  ConvTaps() = default;
  explicit ConvTaps(const ConvGeom& g);

  /// Floats in one padded image, C x padded_h x padded_w.
  std::size_t padded_image() const {
    return geom.channels * padded_h * padded_w;
  }

  ConvGeom geom;
  std::size_t padded_h = 0, padded_w = 0;  // in_h + 2*pad, in_w + 2*pad
  std::vector<Row> rows;                   // C*k*k
};

/// Writes `images` (N x C x H x W) into `padded` (N x padded_image()
/// floats) with a zero border of `pad` pixels on every side.
void conv2d_pad(const float* images, std::size_t n, const ConvTaps& taps,
                float* padded);

/// out (N x out_c x out_h x out_w) = W (out_c x C*k*k) times the patch
/// matrix of the images, given padded (conv2d_pad), plus bias[o] on channel
/// o when bias is not null. Overwrites out.
void conv2d_forward(const float* weight, std::size_t out_c, const float* bias,
                    const float* padded, std::size_t n, const ConvTaps& taps,
                    float* out);

/// grad_weight (out_c x C*k*k) += gy_s * P_s^T for each sample s in order,
/// the images given padded: each element a double dot product over the
/// sample's output positions, rounded to float and added with one float
/// add.
void conv2d_weight_grad(const float* grad_out, std::size_t out_c,
                        const float* padded, std::size_t n,
                        const ConvTaps& taps, float* grad_weight);

/// grad_input (N x C x H x W) += the adjoint of the patch matrix applied to
/// W^T * gy (float sums over output channels in ascending order). The
/// caller zeroes grad_input for a plain gradient; it must hold no -0, which
/// the kernel may turn into +0 (a zeroed buffer, or one that only ever
/// received sums starting at +0, holds none).
void conv2d_input_grad(const float* weight, std::size_t out_c,
                       const float* grad_out, std::size_t n,
                       const ConvTaps& taps, float* grad_input);

}  // namespace apf
