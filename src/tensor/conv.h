// im2col / col2im lowering for 2-D convolutions.
//
// Conv2d layers lower convolution to matmul through im2col: each output
// spatial position becomes a column of unfolded input patches. col2im is the
// adjoint, used in the backward pass to scatter patch gradients back to the
// input image.
//
// The pointer forms take a leading dimension `ld` (the row stride of the
// column matrix), so a batch lowers into one (C*k*k) x (N*out_h*out_w)
// matrix without per-sample temporaries: sample s reads or writes the
// column block starting at cols + s * out_h * out_w, with ld = N * out_h *
// out_w. The Tensor forms are the single-image case, ld = out_h * out_w.
#pragma once

#include "tensor/tensor.h"

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
};

/// Writes the (C*k*k) x (out_h*out_w) patch matrix of one image (C x H x W
/// flat) into `cols`, whose rows are `ld` floats apart (ld >= out_h*out_w).
void im2col_into(const float* image, const ConvGeom& g, float* cols,
                 std::size_t ld);

/// Adjoint of im2col_into: accumulates the (C*k*k) x (out_h*out_w) matrix
/// at `cols` (row stride `ld`) into an image buffer of size C*H*W. Each
/// pixel receives its patch entries in (channel, kernel row, kernel column)
/// order.
void col2im_from(const float* cols, std::size_t ld, const ConvGeom& g,
                 float* image);

/// Unfolds one image to a (C*k*k) x (out_h*out_w) matrix.
Tensor im2col(const float* image, const ConvGeom& g);

/// col2im_from over a (C*k*k) x (out_h*out_w) Tensor (caller zeroes the
/// image buffer first).
void col2im(const Tensor& cols, const ConvGeom& g, float* image);

}  // namespace apf
