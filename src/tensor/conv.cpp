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
}  // namespace

ConvTaps::ConvTaps(const ConvGeom& g)
    : geom(g), padded_h(g.in_h + 2 * g.pad), padded_w(g.in_w + 2 * g.pad) {
  APF_CHECK(g.channels > 0 && g.kernel > 0 && g.stride > 0 &&
            g.in_h + 2 * g.pad >= g.kernel && g.in_w + 2 * g.pad >= g.kernel);
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const auto in_w = static_cast<std::ptrdiff_t>(g.in_w);
  rows.reserve(g.channels * g.kernel * g.kernel);
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel; ++kh) {
      const ValidSpan ys = valid_span(oh, g.in_h, g.stride, kh, g.pad);
      for (std::size_t kw = 0; kw < g.kernel; ++kw) {
        const ValidSpan xs = valid_span(ow, g.in_w, g.stride, kw, g.pad);
        const std::ptrdiff_t origin =
            static_cast<std::ptrdiff_t>(c * g.in_h * g.in_w) +
            (static_cast<std::ptrdiff_t>(kh) - pad) * in_w +
            static_cast<std::ptrdiff_t>(kw) - pad;
        rows.push_back({origin, ys.lo, ys.hi, xs.lo, xs.hi,
                        (c * padded_h + kh) * padded_w + kw});
      }
    }
  }
}

void conv2d_pad(const float* images, std::size_t n, const ConvTaps& taps,
                float* padded) {
  const ConvGeom& g = taps.geom;
  const std::size_t w = g.in_w, pw = taps.padded_w;
  for (std::size_t plane = 0; plane < n * g.channels; ++plane) {
    const float* src = images + plane * g.in_h * w;
    float* dst = padded + plane * taps.padded_h * pw;
    std::fill(dst, dst + g.pad * pw + g.pad, 0.f);
    for (std::size_t y = 0; y < g.in_h; ++y) {
      float* row = dst + (g.pad + y) * pw + g.pad;
      std::copy(src + y * w, src + (y + 1) * w, row);
      // The right border of this row and the left border of the next.
      std::fill(row + w, row + w + 2 * g.pad, 0.f);
    }
    float* tail = dst + (g.pad + g.in_h) * pw + g.pad;
    std::fill(tail, dst + taps.padded_h * pw, 0.f);
  }
}

}  // namespace apf
