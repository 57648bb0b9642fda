#include "tensor/conv.h"

#include <algorithm>

#include "util/error.h"

namespace apf {

namespace {
// Output positions [lo, hi) whose tap at kernel offset `offset` reads a real
// input pixel, pos * stride + offset - pad in [0, in), on one axis.
struct ValidSpan {
  std::size_t lo = 0, hi = 0;
};

ValidSpan valid_span(std::size_t out, std::size_t in, std::size_t stride,
                     std::size_t offset, std::size_t pad) {
  ValidSpan span;
  if (pad + in <= offset) return span;
  span.hi = std::min(out, (pad + in - offset + stride - 1) / stride);
  span.lo = offset >= pad ? 0 : (pad - offset + stride - 1) / stride;
  span.lo = std::min(span.lo, span.hi);
  return span;
}

// Calls fn(row, origin, ys, xs) for every patch row (c, kh, kw) in that
// order. Output position (y, x) of the row reads image pixel
// origin + y * stride * in_w + x * stride when y is in ys and x in xs, and
// padding otherwise (origin itself may lie before the image).
template <typename Fn>
void for_each_patch_row(const ConvGeom& g, Fn&& fn) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const auto in_w = static_cast<std::ptrdiff_t>(g.in_w);
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel; ++kh) {
      const ValidSpan ys = valid_span(oh, g.in_h, g.stride, kh, g.pad);
      for (std::size_t kw = 0; kw < g.kernel; ++kw) {
        const ValidSpan xs = valid_span(ow, g.in_w, g.stride, kw, g.pad);
        const std::ptrdiff_t origin =
            static_cast<std::ptrdiff_t>(c * g.in_h * g.in_w) +
            (static_cast<std::ptrdiff_t>(kh) - pad) * in_w +
            static_cast<std::ptrdiff_t>(kw) - pad;
        fn((c * g.kernel + kh) * g.kernel + kw, origin, ys, xs);
      }
    }
  }
}
}  // namespace

void im2col_into(const float* image, const ConvGeom& g, float* cols,
                 std::size_t ld) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), stride = g.stride;
  // Stride 1 with out_w == in_w ("same" width): the valid taps of a patch
  // row are one contiguous run of the image shifted by origin, so copy the
  // run and zero what falls in the padding, including the columns the run
  // wraps into at each row end.
  const bool same_width = stride == 1 && ow == g.in_w;
  for_each_patch_row(g, [&](std::size_t row, std::ptrdiff_t origin,
                            ValidSpan ys, ValidSpan xs) {
    float* out = cols + row * ld;
    if (ys.lo == ys.hi || xs.lo == xs.hi) {
      std::fill(out, out + oh * ow, 0.f);
      return;
    }
    if (same_width) {
      const std::size_t begin = ys.lo * ow + xs.lo;
      const std::size_t end = (ys.hi - 1) * ow + xs.hi;
      const float* src = image + (origin + static_cast<std::ptrdiff_t>(begin));
      std::fill(out, out + begin, 0.f);
      std::copy(src, src + (end - begin), out + begin);
      std::fill(out + end, out + oh * ow, 0.f);
      for (std::size_t y = ys.lo; y < ys.hi; ++y) {
        for (std::size_t x = 0; x < xs.lo; ++x) out[y * ow + x] = 0.f;
        for (std::size_t x = xs.hi; x < ow; ++x) out[y * ow + x] = 0.f;
      }
      return;
    }
    const std::size_t count = xs.hi - xs.lo;
    for (std::size_t y = 0; y < oh; ++y) {
      float* dst = out + y * ow;
      if (y < ys.lo || y >= ys.hi) {
        for (std::size_t x = 0; x < ow; ++x) dst[x] = 0.f;
        continue;
      }
      const float* src =
          image + (origin + static_cast<std::ptrdiff_t>(
                                (y * g.in_w + xs.lo) * stride));
      for (std::size_t x = 0; x < xs.lo; ++x) dst[x] = 0.f;
      for (std::size_t x = 0; x < count; ++x) dst[xs.lo + x] = src[x * stride];
      for (std::size_t x = xs.hi; x < ow; ++x) dst[x] = 0.f;
    }
  });
}

void col2im_from(const float* cols, std::size_t ld, const ConvGeom& g,
                 float* image) {
  const std::size_t ow = g.out_w(), stride = g.stride;
  for_each_patch_row(g, [&](std::size_t row, std::ptrdiff_t origin,
                            ValidSpan ys, ValidSpan xs) {
    for (std::size_t y = ys.lo; y < ys.hi; ++y) {
      const float* src = cols + row * ld + y * ow;
      float* dst =
          image + (origin + static_cast<std::ptrdiff_t>(
                                (y * g.in_w + xs.lo) * stride));
      const std::size_t count = xs.hi - xs.lo;
      if (stride == 1) {
        for (std::size_t x = 0; x < count; ++x) dst[x] += src[xs.lo + x];
      } else {
        for (std::size_t x = 0; x < count; ++x)
          dst[x * stride] += src[xs.lo + x];
      }
    }
  });
}

Tensor im2col(const float* image, const ConvGeom& g) {
  Tensor cols({g.channels * g.kernel * g.kernel, g.out_h() * g.out_w()});
  im2col_into(image, g, cols.raw(), cols.dim(1));
  return cols;
}

void col2im(const Tensor& cols, const ConvGeom& g, float* image) {
  APF_CHECK(cols.rank() == 2 &&
            cols.dim(0) == g.channels * g.kernel * g.kernel &&
            cols.dim(1) == g.out_h() * g.out_w());
  col2im_from(cols.raw(), cols.dim(1), g, image);
}

}  // namespace apf
