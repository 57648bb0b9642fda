#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/error.h"
#include "util/thread_pool.h"

namespace apf {

namespace {
// Kernels fan work out to the compute pool only when the arithmetic is heavy
// enough to amortize dispatch. Below the threshold (or inside an enclosing
// pool task, where parallel_for runs inline anyway) they stay serial.
// Parallel and serial paths perform bit-identical arithmetic per output
// element, so this decision never changes results.
constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 18;

// Output columns one packed panel of B carries, in both kernel families.
constexpr std::size_t kPanel = 8;
// Rows of A per register tile: 4 x 8 floats for gemm, 2 x 8 doubles for
// the matmul_nt family (8 and 8 SSE registers of accumulators).
constexpr std::size_t kGemmRows = 4;
constexpr std::size_t kNtRows = 2;
// Rows of A the matmul_nt family widens to doubles at a time.
constexpr std::size_t kWideRows = 64;
// Packed B a block keeps at once, in floats (16 KiB, L1 resident).
constexpr std::size_t kPackedFloats = std::size_t{1} << 12;

typedef float f32x4 __attribute__((vector_size(16)));
typedef float f32x2 __attribute__((vector_size(8)));
typedef double f64x2 __attribute__((vector_size(16)));

// Unaligned vector load.
template <typename Vec, typename T>
Vec load(const T* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

bool use_pool(std::size_t flops) {
  if (flops < kParallelFlopThreshold) return false;
  if (util::ThreadPool::in_worker()) return false;
  return util::compute_pool().lanes() > 1;
}

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

// Runs block(t0, t1, p0, p1) over row tiles [t0, t1) x panels [p0, p1) so
// that the blocks cover the grid once. Pool runs split panels first (each
// block packs its panels once) and rows only when the panels alone cannot
// fill the lanes. Every output lies in exactly one block and its arithmetic
// does not depend on the block, so the split never changes results.
template <typename Block>
void run_blocks(std::size_t row_tiles, std::size_t panels, std::size_t flops,
                const Block& block) {
  if (row_tiles == 0 || panels == 0) return;
  if (!use_pool(flops)) {
    block(0, row_tiles, 0, panels);
    return;
  }
  const std::size_t lanes = util::compute_pool().lanes();
  const std::size_t col_blocks = std::min(panels, 2 * lanes);
  const std::size_t row_blocks =
      std::min(row_tiles, ceil_div(lanes, col_blocks));
  util::compute_pool().parallel_for(
      row_blocks * col_blocks, [&](std::size_t i) {
        const std::size_t rb = i / col_blocks, cb = i % col_blocks;
        block(rb * row_tiles / row_blocks, (rb + 1) * row_tiles / row_blocks,
              cb * panels / col_blocks, (cb + 1) * panels / col_blocks);
      });
}

// One float register tile: rows [0, R) of op(A) times one packed panel,
// written over the first `width` columns of C. p ascends, so each output
// gets the scalar ikj loop's float additions in the same order.
template <std::size_t R>
void gemm_tile(const float* a, std::size_t a_row, std::size_t a_col,
               const float* panel, std::size_t k, float* c, std::size_t ldc,
               std::size_t width) {
  f32x4 lo[R] = {}, hi[R] = {};
  for (std::size_t p = 0; p < k; ++p) {
    const f32x4 b_lo = load<f32x4>(panel + p * kPanel);
    const f32x4 b_hi = load<f32x4>(panel + p * kPanel + 4);
    for (std::size_t r = 0; r < R; ++r) {
      const float av = a[r * a_row + p * a_col];
      lo[r] += av * b_lo;
      hi[r] += av * b_hi;
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float row[kPanel];
    std::memcpy(row, &lo[r], sizeof lo[r]);
    std::memcpy(row + 4, &hi[r], sizeof hi[r]);
    if (width == kPanel) {
      std::memcpy(c + r * ldc, row, sizeof row);
    } else {
      std::copy(row, row + width, c + r * ldc);
    }
  }
}

// C(m x n) = op(A) * B with op(A)[i][p] = a[i * a_row + p * a_col] and B
// row-major (k x n), written over c (row stride n). Each block packs its
// panels in runs that fit in cache and sweeps the row tiles over a run, so
// C fills row by row.
void gemm(const float* a, std::size_t a_row, std::size_t a_col,
          const float* b, float* c, std::size_t m, std::size_t k,
          std::size_t n) {
  const std::size_t run = std::max<std::size_t>(
      1, kPackedFloats / (std::max<std::size_t>(k, 1) * kPanel));
  run_blocks(ceil_div(m, kGemmRows), ceil_div(n, kPanel), 2 * m * k * n,
             [&](std::size_t t0, std::size_t t1, std::size_t p0,
                 std::size_t p1) {
    std::vector<float> packed(std::min(run, p1 - p0) * k * kPanel);
    for (std::size_t r0 = p0; r0 < p1; r0 += run) {
      const std::size_t r1 = std::min(p1, r0 + run);
      // Columns of B, k-major in zero-padded panels of kPanel.
      for (std::size_t p = r0; p < r1; ++p) {
        const std::size_t j0 = p * kPanel;
        const std::size_t width = std::min(kPanel, n - j0);
        float* panel = packed.data() + (p - r0) * k * kPanel;
        for (std::size_t kk = 0; kk < k; ++kk) {
          float* dst = panel + kk * kPanel;
          const float* src = b + kk * n + j0;
          if (width == kPanel) {
            std::memcpy(dst, src, kPanel * sizeof(float));
          } else {
            for (std::size_t jj = 0; jj < kPanel; ++jj)
              dst[jj] = jj < width ? src[jj] : 0.f;
          }
        }
      }
      for (std::size_t t = t0; t < t1; ++t) {
        const std::size_t i0 = t * kGemmRows;
        const float* at = a + i0 * a_row;
        for (std::size_t p = r0; p < r1; ++p) {
          const std::size_t j0 = p * kPanel;
          const std::size_t width = std::min(kPanel, n - j0);
          const float* panel = packed.data() + (p - r0) * k * kPanel;
          float* ct = c + i0 * n + j0;
          switch (std::min(kGemmRows, m - i0)) {
            case 4: gemm_tile<4>(at, a_row, a_col, panel, k, ct, n, width); break;
            case 3: gemm_tile<3>(at, a_row, a_col, panel, k, ct, n, width); break;
            case 2: gemm_tile<2>(at, a_row, a_col, panel, k, ct, n, width); break;
            default: gemm_tile<1>(at, a_row, a_col, panel, k, ct, n, width); break;
          }
        }
      }
    }
  });
}

// Loads the first `width` floats of a C row into two 4-lane halves
// (zero-padded), and stores them back.
void load_row(const float* c, std::size_t width, f32x4& lo, f32x4& hi) {
  float row[kPanel] = {};
  std::copy(c, c + width, row);
  lo = load<f32x4>(row);
  hi = load<f32x4>(row + 4);
}

void store_row(float* c, std::size_t width, f32x4 lo, f32x4 hi) {
  float row[kPanel];
  std::memcpy(row, &lo, sizeof lo);
  std::memcpy(row + 4, &hi, sizeof hi);
  std::copy(row, row + width, c);
}

// One double register tile of the matmul_nt family: rows [0, R) of A
// against one 8-column panel, for segments [s0, s1). `a` points at row 0
// of segment 0 of the widened rows (segment stride m * len, row stride
// len); `panel` holds the segments' packed B columns, len k-major rows
// each. Per segment, each dot product sums its exact
// float*float products in ascending q, then rounds to float and is added
// to the C tile (kFold) or stored over it (one segment, !kFold). The C tile
// stays in registers across the segments.
template <std::size_t R, bool kFold>
void nt_tile(const f64x2* a, std::size_t m, std::size_t len,
             const f64x2* panel, std::size_t s0, std::size_t s1, float* c,
             std::size_t ldc, std::size_t width) {
  f32x4 lo[R] = {}, hi[R] = {};
  if (kFold) {
    for (std::size_t r = 0; r < R; ++r)
      load_row(c + r * ldc, width, lo[r], hi[r]);
  }
  for (std::size_t s = s0; s < s1; ++s) {
    f64x2 acc[R][kPanel / 2] = {};
    const f64x2* as = a + s * m * len;
    const f64x2* ps = panel + (s - s0) * len * (kPanel / 2);
    for (std::size_t q = 0; q < len; ++q) {
      const f64x2* bq = ps + q * (kPanel / 2);
      for (std::size_t r = 0; r < R; ++r) {
        const f64x2 av = as[r * len + q];
        acc[r][0] += av * bq[0];
        acc[r][1] += av * bq[1];
        acc[r][2] += av * bq[2];
        acc[r][3] += av * bq[3];
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      const f32x2 x0 = __builtin_convertvector(acc[r][0], f32x2);
      const f32x2 x1 = __builtin_convertvector(acc[r][1], f32x2);
      const f32x2 x2 = __builtin_convertvector(acc[r][2], f32x2);
      const f32x2 x3 = __builtin_convertvector(acc[r][3], f32x2);
      const f32x4 part_lo = {x0[0], x0[1], x1[0], x1[1]};
      const f32x4 part_hi = {x2[0], x2[1], x3[0], x3[1]};
      lo[r] = kFold ? lo[r] + part_lo : part_lo;
      hi[r] = kFold ? hi[r] + part_hi : part_hi;
    }
  }
  for (std::size_t r = 0; r < R; ++r) store_row(c + r * ldc, width, lo[r], hi[r]);
}

// The matmul_nt family (see ops.h): per segment s, A_s is the (m x len)
// slab at a + s * m * len and B_s columns [s * len, (s + 1) * len) of the
// (r x segments * len) matrix b. A is widened to doubles, each element in
// both lanes, so a tile row reads its broadcast operand with one load; rows
// go kWideRows at a time, which bounds that copy (each chunk repacks B, at
// most 1/kWideRows of the arithmetic). Blocks walk their panels, pack runs
// of segments that fit in L1 and sweep the row tiles over each run, so
// every C element folds its segments in ascending order.
template <bool kFold>
void nt_segments(const float* a, const float* b, std::size_t m,
                 std::size_t r, std::size_t segments, std::size_t len,
                 float* c) {
  const std::size_t ldb = segments * len;
  const std::size_t run = std::max<std::size_t>(
      1, kPackedFloats / (2 * kPanel * std::max<std::size_t>(len, 1)));
  for (std::size_t base = 0; base < m; base += kWideRows) {
    const std::size_t rows = std::min(kWideRows, m - base);
    std::vector<f64x2> wide(segments * rows * len);
    for (std::size_t s = 0; s < segments; ++s) {
      const float* src = a + (s * m + base) * len;
      f64x2* dst = wide.data() + s * rows * len;
      for (std::size_t i = 0; i < rows * len; ++i)
        dst[i] = f64x2{src[i], src[i]};
    }
    float* c_rows = c + base * r;
    run_blocks(ceil_div(rows, kNtRows), ceil_div(r, kPanel),
               2 * rows * r * ldb,
               [&](std::size_t t0, std::size_t t1, std::size_t p0,
                   std::size_t p1) {
      constexpr std::size_t kVecs = kPanel / 2;  // f64x2 per packed row
      std::vector<f64x2> panel(std::min(run, segments) * len * kVecs);
      for (std::size_t p = p0; p < p1; ++p) {
        const std::size_t j0 = p * kPanel;
        const std::size_t width = std::min(kPanel, r - j0);
        for (std::size_t s0 = 0; s0 < segments; s0 += run) {
          const std::size_t s1 = std::min(segments, s0 + run);
          // Row q of segment s holds B_s[j0 + jj][q] in lane jj (padded).
          for (std::size_t s = s0; s < s1; ++s) {
            f64x2* dst = panel.data() + (s - s0) * len * kVecs;
            for (std::size_t jj = 0; jj < kPanel; ++jj) {
              if (jj >= width) {
                for (std::size_t q = 0; q < len; ++q)
                  dst[q * kVecs + jj / 2][jj % 2] = 0.0;
                continue;
              }
              const float* brow = b + (j0 + jj) * ldb + s * len;
              for (std::size_t q = 0; q < len; ++q)
                dst[q * kVecs + jj / 2][jj % 2] = brow[q];
            }
          }
          for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t i0 = t * kNtRows;
            const f64x2* at = wide.data() + i0 * len;
            float* ct = c_rows + i0 * r + j0;
            if (rows - i0 >= 2) {
              nt_tile<2, kFold>(at, rows, len, panel.data(), s0, s1, ct, r,
                                width);
            } else {
              nt_tile<1, kFold>(at, rows, len, panel.data(), s0, s1, ct, r,
                                width);
            }
          }
        }
      }
    });
  }
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  APF_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  APF_CHECK_MSG(b.dim(0) == k, "matmul inner dims " << k << " vs " << b.dim(0));
  Tensor c({m, n});
  gemm(a.raw(), k, 1, b.raw(), c.raw(), m, k, n);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  // C(k x n) = A^T * B where A is (m x k), B is (m x n): op(A) = A^T is
  // read through swapped strides.
  APF_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  APF_CHECK(b.dim(0) == m);
  Tensor c({k, n});
  gemm(a.raw(), 1, k, b.raw(), c.raw(), k, m, n);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  // C(m x r) = A * B^T where A is (m x k), B is (r x k): one segment.
  APF_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), r = b.dim(0);
  APF_CHECK(b.dim(1) == k);
  Tensor c({m, r});
  nt_segments<false>(a.raw(), b.raw(), m, r, 1, k, c.raw());
  return c;
}

void matmul_nt_fold_segments(const float* a, const float* b, std::size_t m,
                             std::size_t r, std::size_t segments,
                             std::size_t len, float* c) {
  nt_segments<true>(a, b, m, r, segments, len, c);
}

Tensor transpose(const Tensor& a) {
  APF_CHECK(a.rank() == 2);
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) t[j * m + i] = a[i * n + j];
  return t;
}

Tensor softmax_rows(const Tensor& logits) {
  APF_CHECK(logits.rank() == 2);
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  Tensor out({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = logits.raw() + i * n;
    float mx = row[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    float* orow = out.raw() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::size_t j = 0; j < n; ++j) orow[j] *= inv;
  }
  return out;
}

std::vector<std::size_t> argmax_rows(const Tensor& t) {
  APF_CHECK(t.rank() == 2);
  const std::size_t m = t.dim(0), n = t.dim(1);
  APF_CHECK(n > 0);
  std::vector<std::size_t> idx(m);
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = t.raw() + i * n;
    idx[i] = static_cast<std::size_t>(
        std::max_element(row, row + n) - row);
  }
  return idx;
}

void add_bias_rows(Tensor& t, const Tensor& bias) {
  APF_CHECK(t.rank() == 2);
  const std::size_t m = t.dim(0), n = t.dim(1);
  APF_CHECK(bias.numel() == n);
  for (std::size_t i = 0; i < m; ++i) {
    float* row = t.raw() + i * n;
    for (std::size_t j = 0; j < n; ++j) row[j] += bias[j];
  }
}

}  // namespace apf
