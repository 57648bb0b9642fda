#include "tensor/ops.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "tensor/activations.h"
#include "tensor/simd.h"
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
// Rows of A the matmul_nt family widens to doubles at a time.
constexpr std::size_t kWideRows = 64;
// Packed B a block keeps at once, in floats (16 KiB, L1 resident).
constexpr std::size_t kPackedFloats = std::size_t{1} << 12;

using simd::f32x2;
using simd::f32x4;
using simd::f32x8;
using simd::f64x2;
using simd::f64x4;
using simd::kLanes;
using simd::load;
using simd::store;

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

// One C row of a tile: the first `width` floats, zero-padded to a panel.
template <typename F>
APF_TILE void load_row(const float* c, std::size_t width,
                       F (&row)[kPanel / kLanes<F>]) {
  float buf[kPanel] = {};
  if (width < kPanel) std::copy(c, c + width, buf);
  const float* src = width == kPanel ? c : buf;
  for (std::size_t v = 0; v < kPanel / kLanes<F>; ++v)
    load(src + v * kLanes<F>, row[v]);
}

template <typename F>
APF_TILE void store_row(float* c, std::size_t width,
                        const F (&row)[kPanel / kLanes<F>]) {
  float buf[kPanel];
  float* dst = width == kPanel ? c : buf;
  for (std::size_t v = 0; v < kPanel / kLanes<F>; ++v)
    store(dst + v * kLanes<F>, row[v]);
  if (width < kPanel) std::copy(buf, buf + width, c);
}

// Rounds two vectors of double sums to one vector of floats, lane by lane.
APF_TILE void narrow(const f64x2& lo, const f64x2& hi, f32x4& out) {
  const f32x2 x = __builtin_convertvector(lo, f32x2);
  const f32x2 y = __builtin_convertvector(hi, f32x2);
  out = f32x4{x[0], x[1], y[0], y[1]};
}

APF_TILE void narrow(const f64x4& lo, const f64x4& hi, f32x8& out) {
  const f32x4 x = __builtin_convertvector(lo, f32x4);
  const f32x4 y = __builtin_convertvector(hi, f32x4);
  out = __builtin_shufflevector(x, y, 0, 1, 2, 3, 4, 5, 6, 7);
}

// One float register tile: rows [0, R) of op(A) times one packed panel,
// written over the first `width` columns of C. p ascends, so each output
// gets the scalar ikj loop's float additions in the same order.
template <typename F, std::size_t R>
APF_TILE void gemm_tile(const float* a, std::size_t a_row, std::size_t a_col,
                        const float* panel, std::size_t k, float* c,
                        std::size_t ldc, std::size_t width) {
  constexpr std::size_t kVecs = kPanel / kLanes<F>;
  F acc[R][kVecs] = {};
  for (std::size_t p = 0; p < k; ++p) {
    F b[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v)
      load(panel + p * kPanel + v * kLanes<F>, b[v]);
    for (std::size_t r = 0; r < R; ++r) {
      const float av = a[r * a_row + p * a_col];
      for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += av * b[v];
    }
  }
  for (std::size_t r = 0; r < R; ++r) store_row(c + r * ldc, width, acc[r]);
}

// The tile of `rows` (1..R) rows.
template <typename F, std::size_t R>
APF_TILE void gemm_rows(std::size_t rows, const float* a, std::size_t a_row,
                        std::size_t a_col, const float* panel, std::size_t k,
                        float* c, std::size_t ldc, std::size_t width) {
  if constexpr (R > 1) {
    if (rows < R) {
      gemm_rows<F, R - 1>(rows, a, a_row, a_col, panel, k, c, ldc, width);
      return;
    }
  }
  gemm_tile<F, R>(a, a_row, a_col, panel, k, c, ldc, width);
}

// Row tiles [t0, t1) of gemm over the packed panels [p0, p1): panel p sits
// at packed + (p - p0) * k * kPanel.
struct GemmSweep {
  const float* a;
  std::size_t a_row, a_col;
  const float* packed;
  float* c;
  std::size_t m, k, n, t0, t1, p0, p1;
};

template <typename Isa>
APF_TILE void gemm_sweep(const GemmSweep& args) {
  const GemmSweep s = args;  // a local copy: stores to C cannot alias it
  constexpr std::size_t kRows = Isa::kGemmRows;
  for (std::size_t t = s.t0; t < s.t1; ++t) {
    const std::size_t i0 = t * kRows;
    for (std::size_t p = s.p0; p < s.p1; ++p) {
      const std::size_t j0 = p * kPanel;
      gemm_rows<typename Isa::Floats, kRows>(
          std::min(kRows, s.m - i0), s.a + i0 * s.a_row, s.a_row, s.a_col,
          s.packed + (p - s.p0) * s.k * kPanel, s.k, s.c + i0 * s.n + j0, s.n,
          std::min(kPanel, s.n - j0));
    }
  }
}

// One double register tile of the matmul_nt family: rows [0, R) of A
// against one 8-column panel, for segments [s0, s1). `a` points at row 0
// of segment 0 of the widened rows (segment stride m * len, row stride
// len); `panel` holds the segments' packed B columns, len rows of kPanel
// doubles each. Per segment, each dot product sums its exact float*float
// products in ascending q, then rounds to float and is added to the C tile
// (kFold) or stored over it (one segment, !kFold). The C tile stays in
// registers across the segments.
template <typename Isa, std::size_t R, bool kFold>
APF_TILE void nt_tile(const typename Isa::WideA* a, std::size_t m,
                      std::size_t len, const double* panel, std::size_t s0,
                      std::size_t s1, float* c, std::size_t ldc,
                      std::size_t width) {
  using F = typename Isa::Floats;
  using D = typename Isa::Doubles;
  constexpr std::size_t kFloatVecs = kPanel / kLanes<F>;
  constexpr std::size_t kVecs = kPanel / kLanes<D>;
  static_assert(kVecs == 2 * kFloatVecs);
  F ct[R][kFloatVecs] = {};
  if (kFold) {
    for (std::size_t r = 0; r < R; ++r) load_row(c + r * ldc, width, ct[r]);
  }
  for (std::size_t s = s0; s < s1; ++s) {
    D acc[R][kVecs] = {};
    const typename Isa::WideA* as = a + s * m * len;
    const double* ps = panel + (s - s0) * len * kPanel;
    for (std::size_t q = 0; q < len; ++q) {
      D b[kVecs];
      for (std::size_t v = 0; v < kVecs; ++v)
        load(ps + q * kPanel + v * kLanes<D>, b[v]);
      for (std::size_t r = 0; r < R; ++r) {
        const typename Isa::WideA av = as[r * len + q];
        for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += av * b[v];
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < kFloatVecs; ++v) {
        F part;
        narrow(acc[r][2 * v], acc[r][2 * v + 1], part);
        ct[r][v] = kFold ? ct[r][v] + part : part;
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) store_row(c + r * ldc, width, ct[r]);
}

template <typename Isa, std::size_t R, bool kFold>
APF_TILE void nt_rows(std::size_t rows, const typename Isa::WideA* a,
                      std::size_t m, std::size_t len, const double* panel,
                      std::size_t s0, std::size_t s1, float* c,
                      std::size_t ldc, std::size_t width) {
  if constexpr (R > 1) {
    if (rows < R) {
      nt_rows<Isa, R - 1, kFold>(rows, a, m, len, panel, s0, s1, c, ldc,
                                 width);
      return;
    }
  }
  nt_tile<Isa, R, kFold>(a, m, len, panel, s0, s1, c, ldc, width);
}

// Row tiles [t0, t1) of one chunk of `m` widened rows against one packed
// panel, for segments [s0, s1); c points at the panel's first column of the
// chunk's first row.
template <typename WideA>
struct NtSweep {
  const WideA* a;
  const double* panel;
  float* c;
  std::size_t m, len, s0, s1, ldc, width, t0, t1;
};

template <typename Isa, bool kFold>
APF_TILE void nt_sweep(const NtSweep<typename Isa::WideA>& args) {
  const NtSweep<typename Isa::WideA> s = args;
  constexpr std::size_t kRows = Isa::kNtRows;
  for (std::size_t t = s.t0; t < s.t1; ++t) {
    const std::size_t i0 = t * kRows;
    nt_rows<Isa, kRows, kFold>(std::min(kRows, s.m - i0), s.a + i0 * s.len,
                               s.m, s.len, s.panel, s.s0, s.s1,
                               s.c + i0 * s.ldc, s.ldc, s.width);
  }
}

// The GEMM entry points of each instruction set (tensor/simd.h).
template <typename Isa>
struct Tiles;

// The baseline tiles: 4 x 8 floats, and 2 x 8 doubles against A widened
// into both lanes of a vector, so a tile row reads its operand with one
// plain load.
template <>
struct Tiles<simd::Sse2> : simd::Sse2 {
  using WideA = f64x2;
  static constexpr std::size_t kGemmRows = 4, kNtRows = 2;
  static void widen(float x, WideA& out) { out = WideA{x, x}; }
  static void gemm(const GemmSweep& s) { gemm_sweep<Tiles>(s); }
  template <bool kFold>
  static void nt(const NtSweep<WideA>& s) {
    nt_sweep<Tiles, kFold>(s);
  }
};

#ifdef APF_SIMD_AVX2
// The AVX2 tiles: 8 x 8 floats, and 4 x 8 doubles against A widened to
// plain doubles, read through broadcast loads. Each tile keeps eight vector
// accumulators, as the baseline does. FMA stays off: a fused multiply-add
// would round the float tile differently.
template <>
struct Tiles<simd::Avx2> : simd::Avx2 {
  using WideA = double;
  static constexpr std::size_t kGemmRows = 8, kNtRows = 4;
  static void widen(float x, WideA& out) { out = x; }
  __attribute__((target("avx2"))) static void gemm(const GemmSweep& s) {
    gemm_sweep<Tiles>(s);
  }
  template <bool kFold>
  __attribute__((target("avx2"))) static void nt(const NtSweep<WideA>& s) {
    nt_sweep<Tiles, kFold>(s);
  }
};
#endif

// C(m x n) = op(A) * B with op(A)[i][p] = a[i * a_row + p * a_col] and B
// row-major (k x n), written over c (row stride n). Each block packs its
// panels in runs that fit in cache and sweeps the row tiles over a run, so
// C fills row by row.
template <typename Isa>
void gemm(const float* a, std::size_t a_row, std::size_t a_col,
          const float* b, float* c, std::size_t m, std::size_t k,
          std::size_t n) {
  const std::size_t run = std::max<std::size_t>(
      1, kPackedFloats / (std::max<std::size_t>(k, 1) * kPanel));
  run_blocks(ceil_div(m, Isa::kGemmRows), ceil_div(n, kPanel), 2 * m * k * n,
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
      Isa::gemm({a, a_row, a_col, packed.data(), c, m, k, n, t0, t1, r0, r1});
    }
  });
}

// The matmul_nt family (see ops.h): per segment s, A_s is the (m x len)
// slab at a + s * m * len and B_s columns [s * len, (s + 1) * len) of the
// (r x segments * len) matrix b. A is widened to doubles (Isa::widen) in
// chunks of kWideRows rows, which bounds that copy (each chunk repacks B,
// at most 1/kWideRows of the arithmetic). Blocks walk their panels, pack
// runs of segments that fit in L1 and sweep the row tiles over each run,
// so every C element folds its segments in ascending order.
template <typename Isa, bool kFold>
void nt_segments(const float* a, const float* b, std::size_t m,
                 std::size_t r, std::size_t segments, std::size_t len,
                 float* c) {
  using WideA = typename Isa::WideA;
  const std::size_t ldb = segments * len;
  const std::size_t run = std::max<std::size_t>(
      1, kPackedFloats / (2 * kPanel * std::max<std::size_t>(len, 1)));
  for (std::size_t base = 0; base < m; base += kWideRows) {
    const std::size_t rows = std::min(kWideRows, m - base);
    std::vector<WideA> wide(segments * rows * len);
    for (std::size_t s = 0; s < segments; ++s) {
      const float* src = a + (s * m + base) * len;
      WideA* dst = wide.data() + s * rows * len;
      for (std::size_t i = 0; i < rows * len; ++i) Isa::widen(src[i], dst[i]);
    }
    float* c_rows = c + base * r;
    run_blocks(ceil_div(rows, Isa::kNtRows), ceil_div(r, kPanel),
               2 * rows * r * ldb,
               [&](std::size_t t0, std::size_t t1, std::size_t p0,
                   std::size_t p1) {
      std::vector<double> panel(std::min(run, segments) * len * kPanel);
      for (std::size_t p = p0; p < p1; ++p) {
        const std::size_t j0 = p * kPanel;
        const std::size_t width = std::min(kPanel, r - j0);
        for (std::size_t s0 = 0; s0 < segments; s0 += run) {
          const std::size_t s1 = std::min(segments, s0 + run);
          // Row q of segment s holds B_s[j0 + jj][q] in lane jj (padded).
          for (std::size_t s = s0; s < s1; ++s) {
            double* dst = panel.data() + (s - s0) * len * kPanel;
            for (std::size_t jj = 0; jj < kPanel; ++jj) {
              if (jj >= width) {
                for (std::size_t q = 0; q < len; ++q)
                  dst[q * kPanel + jj] = 0.0;
                continue;
              }
              const float* brow = b + (j0 + jj) * ldb + s * len;
              for (std::size_t q = 0; q < len; ++q)
                dst[q * kPanel + jj] = brow[q];
            }
          }
          Isa::template nt<kFold>({wide.data(), panel.data(), c_rows + j0,
                                   rows, len, s0, s1, r, width, t0, t1});
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
  simd::with_isa<Tiles>([&](auto isa) {
    gemm<decltype(isa)>(a.raw(), k, 1, b.raw(), c.raw(), m, k, n);
  });
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  // C(k x n) = A^T * B where A is (m x k), B is (m x n): op(A) = A^T is
  // read through swapped strides.
  APF_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  APF_CHECK(b.dim(0) == m);
  Tensor c({k, n});
  simd::with_isa<Tiles>([&](auto isa) {
    gemm<decltype(isa)>(a.raw(), 1, k, b.raw(), c.raw(), k, m, n);
  });
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  // C(m x r) = A * B^T where A is (m x k), B is (r x k): one segment.
  APF_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), r = b.dim(0);
  APF_CHECK(b.dim(1) == k);
  Tensor c({m, r});
  simd::with_isa<Tiles>([&](auto isa) {
    nt_segments<decltype(isa), false>(a.raw(), b.raw(), m, r, 1, k, c.raw());
  });
  return c;
}

void matmul_nt_fold_segments(const float* a, const float* b, std::size_t m,
                             std::size_t r, std::size_t segments,
                             std::size_t len, float* c) {
  simd::with_isa<Tiles>([&](auto isa) {
    nt_segments<decltype(isa), true>(a, b, m, r, segments, len, c);
  });
}

const char* gemm_simd_path() {
  const char* name = nullptr;
  simd::with_isa<Tiles>([&](auto isa) { name = decltype(isa)::kName; });
  return name;
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
  APF_CHECK(n > 0);
  Tensor out({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = logits.raw() + i * n;
    float mx = row[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    float* orow = out.raw() + i * n;
    for (std::size_t j = 0; j < n; ++j) orow[j] = row[j] - mx;
    const std::span<float> e(orow, n);
    apf::exp(e, e);
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += orow[j];
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
