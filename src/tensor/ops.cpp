#include "tensor/ops.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "tensor/activations.h"
#include "tensor/conv.h"
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

// Adds rows [0, R) of op(A) times one packed panel to a float register
// tile. p ascends, so each output gets the scalar ikj loop's float
// additions in the same order.
template <typename F, std::size_t R>
APF_TILE void gemm_acc(const float* a, std::size_t a_row, std::size_t a_col,
                       const float* panel, std::size_t k,
                       F (&acc)[R][kPanel / kLanes<F>]) {
  constexpr std::size_t kVecs = kPanel / kLanes<F>;
  for (std::size_t p = 0; p < k; ++p) {
    F b[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v)
      load(panel + p * kPanel + v * kLanes<F>, b[v]);
    for (std::size_t r = 0; r < R; ++r) {
      const float av = a[r * a_row + p * a_col];
      for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += av * b[v];
    }
  }
}

// One float register tile, starting at +0, each finished row r handed to
// out(r, row).
template <typename F, std::size_t R, typename Out>
APF_TILE void gemm_tile(const float* a, std::size_t a_row, std::size_t a_col,
                        const float* panel, std::size_t k, const Out& out) {
  F acc[R][kPanel / kLanes<F>] = {};
  gemm_acc<F, R>(a, a_row, a_col, panel, k, acc);
  for (std::size_t r = 0; r < R; ++r) out(r, acc[r]);
}

// The tile of `rows` (1..R) rows.
template <typename F, std::size_t R, typename Out>
APF_TILE void gemm_rows(std::size_t rows, const float* a, std::size_t a_row,
                        std::size_t a_col, const float* panel, std::size_t k,
                        const Out& out) {
  if constexpr (R > 1) {
    if (rows < R) {
      gemm_rows<F, R - 1>(rows, a, a_row, a_col, panel, k, out);
      return;
    }
  }
  gemm_tile<F, R>(a, a_row, a_col, panel, k, out);
}

// Writes the rows of one tile to C: row r at c + r * ldc, its first
// `width` columns, stored over C or (kFold) added to it, C + row with one
// float add per output.
template <bool kFold>
struct RowStore {
  float* c;
  std::size_t ldc, width;
  template <typename F, std::size_t V>
  APF_TILE void operator()(std::size_t r, const F (&row)[V]) const {
    float* dst = c + r * ldc;
    if constexpr (kFold) {
      F sum[V];
      load_row(dst, width, sum);
      for (std::size_t v = 0; v < V; ++v) sum[v] += row[v];
      store_row(dst, width, sum);
    } else {
      store_row(dst, width, row);
    }
  }
};

// Row tiles [t0, t1) of gemm over the packed panels [p0, p1): panel p sits
// at packed + (p - p0) * k * kPanel. The tile of row tile t and panel p
// goes to dst.tile(t * rows per tile, p), a store like RowStore.
struct GemmSweep {
  const float* a;
  std::size_t a_row, a_col;
  const float* packed;
  std::size_t m, k, t0, t1, p0, p1;
};

template <typename Isa, typename Dst>
APF_TILE void gemm_sweep(const GemmSweep& args, const Dst& dst_args) {
  const GemmSweep s = args;  // local copies: stores to C cannot alias them
  const Dst dst = dst_args;
  constexpr std::size_t kRows = Isa::kGemmRows;
  for (std::size_t t = s.t0; t < s.t1; ++t) {
    const std::size_t i0 = t * kRows;
    for (std::size_t p = s.p0; p < s.p1; ++p) {
      gemm_rows<typename Isa::Floats, kRows>(
          std::min(kRows, s.m - i0), s.a + i0 * s.a_row, s.a_row, s.a_col,
          s.packed + (p - s.p0) * s.k * kPanel, s.k, dst.tile(i0, p));
    }
  }
}

// One float tile of the step fold (matmul_tn_fold): the C tile (R rows at
// c, row stride ldc, its first `width` columns) plus, for t = steps - 1
// down to 0, rows [0, R) of A_t^T (A_t at a + t * a_step, op(A)[r][p] =
// a[r + p * a_col]) times panel t (m rows of kPanel floats at panels + t *
// m * kPanel). Each step's float sum starts at +0 and is added to the C
// tile with one float add, C + sum, as RowStore<true> adds one step; the C
// tile stays in registers across the steps.
template <typename F, std::size_t R>
APF_TILE void fold_steps_tile(const float* a, std::size_t a_col,
                              std::size_t a_step, const float* panels,
                              std::size_t m, std::size_t steps, float* c,
                              std::size_t ldc, std::size_t width) {
  constexpr std::size_t kVecs = kPanel / kLanes<F>;
  F ct[R][kVecs];
  for (std::size_t r = 0; r < R; ++r) load_row(c + r * ldc, width, ct[r]);
  for (std::size_t t = steps; t-- > 0;) {
    F acc[R][kVecs] = {};
    gemm_acc<F, R>(a + t * a_step, 1, a_col, panels + t * m * kPanel, m, acc);
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t v = 0; v < kVecs; ++v) ct[r][v] += acc[r][v];
  }
  for (std::size_t r = 0; r < R; ++r) store_row(c + r * ldc, width, ct[r]);
}

template <typename F, std::size_t R>
APF_TILE void fold_steps_rows(std::size_t rows, const float* a,
                              std::size_t a_col, std::size_t a_step,
                              const float* panels, std::size_t m,
                              std::size_t steps, float* c, std::size_t ldc,
                              std::size_t width) {
  if constexpr (R > 1) {
    if (rows < R) {
      fold_steps_rows<F, R - 1>(rows, a, a_col, a_step, panels, m, steps, c,
                                ldc, width);
      return;
    }
  }
  fold_steps_tile<F, R>(a, a_col, a_step, panels, m, steps, c, ldc, width);
}

// Row tiles [t0, t1) of the step fold's (k x n) C over the packed panels
// [p0, p1): panel p's steps sit at packed + (p - p0) * steps * m * kPanel.
struct StepSweep {
  const float* a;
  std::size_t a_col, a_step;
  const float* packed;
  float* c;
  std::size_t n, m, k, steps, t0, t1, p0, p1;
};

template <typename Isa>
APF_TILE void fold_steps_sweep(const StepSweep& args) {
  const StepSweep s = args;
  constexpr std::size_t kRows = Isa::kGemmRows;
  for (std::size_t t = s.t0; t < s.t1; ++t) {
    const std::size_t i0 = t * kRows;
    for (std::size_t p = s.p0; p < s.p1; ++p) {
      const std::size_t j0 = p * kPanel;
      fold_steps_rows<typename Isa::Floats, kRows>(
          std::min(kRows, s.k - i0), s.a + i0, s.a_col, s.a_step,
          s.packed + (p - s.p0) * s.steps * s.m * kPanel, s.m, s.steps,
          s.c + i0 * s.n + j0, s.n, std::min(kPanel, s.n - j0));
    }
  }
}

// Float vectors per C row of one panel, in the double tiles.
template <typename Isa>
constexpr std::size_t kNtVecs = kPanel / kLanes<typename Isa::Floats>;

// The double dot products of rows [0, R) of the widened rows at a (row
// stride len) against one packed panel (len rows of kPanel doubles): each
// sums its exact float*float products in ascending q (Isa::madd), then
// rounds to float.
template <typename Isa, std::size_t R>
APF_TILE void nt_dots(const typename Isa::WideA* a, std::size_t len,
                      const double* panel,
                      typename Isa::Floats (&out)[R][kNtVecs<Isa>]) {
  using D = typename Isa::Doubles;
  constexpr std::size_t kVecs = kPanel / kLanes<D>;
  static_assert(kVecs == 2 * kNtVecs<Isa>);
  D acc[R][kVecs] = {};
  for (std::size_t q = 0; q < len; ++q) {
    D b[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v)
      load(panel + q * kPanel + v * kLanes<D>, b[v]);
    for (std::size_t r = 0; r < R; ++r) {
      const typename Isa::WideA av = a[r * len + q];
      for (std::size_t v = 0; v < kVecs; ++v) Isa::madd(acc[r][v], av, b[v]);
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t v = 0; v < kNtVecs<Isa>; ++v)
      narrow(acc[r][2 * v], acc[r][2 * v + 1], out[r][v]);
}

// One double register tile of the matmul_nt family: rows [0, R) of A
// against one 8-column panel, for segments [s0, s1). `a` points at row 0
// of segment 0 of the widened rows (segment stride m * len, row stride
// len); `panel` holds the segments' packed B columns, len rows of kPanel
// doubles each. Per segment, each rounded dot product is added to the C
// tile (kFold) or stored over it (one segment, !kFold). The C tile stays
// in registers across the segments.
template <typename Isa, std::size_t R, bool kFold>
APF_TILE void nt_tile(const typename Isa::WideA* a, std::size_t m,
                      std::size_t len, const double* panel, std::size_t s0,
                      std::size_t s1, float* c, std::size_t ldc,
                      std::size_t width) {
  using F = typename Isa::Floats;
  F ct[R][kNtVecs<Isa>] = {};
  if (kFold) {
    for (std::size_t r = 0; r < R; ++r) load_row(c + r * ldc, width, ct[r]);
  }
  for (std::size_t s = s0; s < s1; ++s) {
    F part[R][kNtVecs<Isa>];
    nt_dots<Isa, R>(a + s * m * len, len, panel + (s - s0) * len * kPanel,
                    part);
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < kNtVecs<Isa>; ++v)
        ct[r][v] = kFold ? ct[r][v] + part[r][v] : part[r][v];
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

// One tile of matmul_nt_pair: rows [0, R) of A1 (row stride k1) against
// panel1 and of A2 (row stride k2) against panel2, one product after the
// other in the same double registers, each rounded to float, and the two
// added with one float add in registers before the tile is stored.
template <typename Isa, std::size_t R>
APF_TILE void nt_pair_tile(const typename Isa::WideA* a1, std::size_t k1,
                           const double* panel1,
                           const typename Isa::WideA* a2, std::size_t k2,
                           const double* panel2, float* c, std::size_t ldc,
                           std::size_t width) {
  using F = typename Isa::Floats;
  F ct[R][kNtVecs<Isa>];
  F part[R][kNtVecs<Isa>];
  nt_dots<Isa, R>(a1, k1, panel1, ct);
  nt_dots<Isa, R>(a2, k2, panel2, part);
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < kNtVecs<Isa>; ++v) ct[r][v] += part[r][v];
    store_row(c + r * ldc, width, ct[r]);
  }
}

template <typename Isa, std::size_t R>
APF_TILE void nt_pair_rows(std::size_t rows, const typename Isa::WideA* a1,
                           std::size_t k1, const double* panel1,
                           const typename Isa::WideA* a2, std::size_t k2,
                           const double* panel2, float* c, std::size_t ldc,
                           std::size_t width) {
  if constexpr (R > 1) {
    if (rows < R) {
      nt_pair_rows<Isa, R - 1>(rows, a1, k1, panel1, a2, k2, panel2, c, ldc,
                               width);
      return;
    }
  }
  nt_pair_tile<Isa, R>(a1, k1, panel1, a2, k2, panel2, c, ldc, width);
}

// Every tile of one chunk of `m` widened rows of matmul_nt_pair: A1's rows
// at a1 (row stride k1), A2's at a2 (row stride k2), the panels of B1 and
// B2 whole, and c at the chunk's first row (row stride r).
template <typename WideA>
struct NtPairSweep {
  const WideA* a1;
  const WideA* a2;
  const double* panels1;
  const double* panels2;
  float* c;
  std::size_t m, k1, k2, r;
};

template <typename Isa>
APF_TILE void nt_pair_sweep(const NtPairSweep<typename Isa::WideA>& args) {
  const NtPairSweep<typename Isa::WideA> s = args;
  constexpr std::size_t kRows = Isa::kNtRows;
  for (std::size_t j0 = 0; j0 < s.r; j0 += kPanel) {
    const double* panel1 = s.panels1 + j0 * s.k1;
    const double* panel2 = s.panels2 + j0 * s.k2;
    for (std::size_t i0 = 0; i0 < s.m; i0 += kRows) {
      nt_pair_rows<Isa, kRows>(std::min(kRows, s.m - i0), s.a1 + i0 * s.k1,
                               s.k1, panel1, s.a2 + i0 * s.k2, s.k2, panel2,
                               s.c + i0 * s.r + j0, s.r,
                               std::min(kPanel, s.r - j0));
    }
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
  APF_TILE static void madd(f64x2& acc, const WideA& a, const f64x2& b) {
    acc += a * b;
  }
  template <typename Dst>
  static void gemm(const GemmSweep& s, const Dst& dst) {
    gemm_sweep<Tiles>(s, dst);
  }
  static void fold_steps(const StepSweep& s) { fold_steps_sweep<Tiles>(s); }
  template <bool kFold>
  static void nt(const NtSweep<WideA>& s) {
    nt_sweep<Tiles, kFold>(s);
  }
  static void nt_pair(const NtPairSweep<WideA>& s) { nt_pair_sweep<Tiles>(s); }
};

#ifdef APF_SIMD_AVX2
// The AVX2 tiles: 8 x 8 floats, and 4 x 8 doubles against A widened to
// plain doubles, read through broadcast loads. Each tile keeps eight vector
// accumulators, as the baseline does. The double tile adds its exact
// products with FMA (ops.h says why that keeps every bit); the float tile
// does not, because its products round.
template <>
struct Tiles<simd::Avx2> : simd::Avx2 {
  using WideA = double;
  static constexpr std::size_t kGemmRows = 8, kNtRows = 4;
  static void widen(float x, WideA& out) { out = x; }
  // One vfmadd231pd inside the avx2,fma entry.
  APF_TILE static void madd(f64x4& acc, WideA a, const f64x4& b) {
    acc = f64x4{__builtin_fma(a, b[0], acc[0]), __builtin_fma(a, b[1], acc[1]),
                __builtin_fma(a, b[2], acc[2]), __builtin_fma(a, b[3], acc[3])};
  }
  template <typename Dst>
  __attribute__((target("avx2"))) static void gemm(const GemmSweep& s,
                                                   const Dst& dst) {
    gemm_sweep<Tiles>(s, dst);
  }
  __attribute__((target("avx2"))) static void fold_steps(
      const StepSweep& s) {
    fold_steps_sweep<Tiles>(s);
  }
  template <bool kFold>
  __attribute__((target("avx2,fma"))) static void nt(
      const NtSweep<WideA>& s) {
    nt_sweep<Tiles, kFold>(s);
  }
  __attribute__((target("avx2,fma"))) static void nt_pair(
      const NtPairSweep<WideA>& s) {
    nt_pair_sweep<Tiles>(s);
  }
};
#endif

// Float panels of k rows that fit in kPackedFloats together (at least 1).
std::size_t panel_run(std::size_t k) {
  return std::max<std::size_t>(
      1, kPackedFloats / (std::max<std::size_t>(k, 1) * kPanel));
}

// C = op(A) * B with op(A)[i][p] = a[i * a_row + p * a_col] (m x k) and B
// (k x n) read through src: src.pack(p, panel) writes panel p of B (k rows
// of kPanel floats, zero past column n), and src.tile(i0, p) is the store
// of the tile at row i0 and panel p. Each block packs its panels in runs
// that fit in cache and sweeps the row tiles over a run, so C fills row by
// row.
template <typename Isa, typename Src>
void gemm(const float* a, std::size_t a_row, std::size_t a_col, std::size_t m,
          std::size_t k, std::size_t n, const Src& src) {
  const std::size_t run = panel_run(k);
  run_blocks(ceil_div(m, Isa::kGemmRows), ceil_div(n, kPanel), 2 * m * k * n,
             [&](std::size_t t0, std::size_t t1, std::size_t p0,
                 std::size_t p1) {
    std::vector<float> packed(std::min(run, p1 - p0) * k * kPanel);
    for (std::size_t r0 = p0; r0 < p1; r0 += run) {
      const std::size_t r1 = std::min(p1, r0 + run);
      for (std::size_t p = r0; p < r1; ++p)
        src.pack(p, packed.data() + (p - r0) * k * kPanel);
      Isa::gemm({a, a_row, a_col, packed.data(), m, k, t0, t1, r0, r1}, src);
    }
  });
}

// Panel p of the (k x n) matrix b (row stride ldb): its columns, k-major,
// zero-padded to kPanel.
void pack_gemm_panel(const float* b, std::size_t ldb, std::size_t k,
                     std::size_t n, std::size_t p, float* panel) {
  const std::size_t j0 = p * kPanel;
  const std::size_t width = std::min(kPanel, n - j0);
  for (std::size_t kk = 0; kk < k; ++kk) {
    float* dst = panel + kk * kPanel;
    const float* src = b + kk * ldb + j0;
    if (width == kPanel) {
      std::memcpy(dst, src, kPanel * sizeof(float));
    } else {
      for (std::size_t jj = 0; jj < kPanel; ++jj)
        dst[jj] = jj < width ? src[jj] : 0.f;
    }
  }
}

// C as a row-major (m x n) matrix with row stride ldc, the tiles stored
// over it or (kFold) folded into it.
template <bool kFold>
struct MatrixStore {
  float* c;
  std::size_t ldc, n;

  RowStore<kFold> tile(std::size_t i0, std::size_t p) const {
    const std::size_t j0 = p * kPanel;
    return {c + i0 * ldc + j0, ldc, std::min(kPanel, n - j0)};
  }
};

// B of gemm as a row-major (k x n) matrix with row stride ldb, C stored.
struct MatrixOperands : MatrixStore<false> {
  const float* b;
  std::size_t ldb, k;

  void pack(std::size_t p, float* panel) const {
    pack_gemm_panel(b, ldb, k, this->n, p, panel);
  }
};

template <typename Isa>
void gemm_matrix(const float* a, std::size_t a_row, std::size_t a_col,
                 const float* b, float* c, std::size_t m, std::size_t k,
                 std::size_t n) {
  gemm<Isa>(a, a_row, a_col, m, k, n, MatrixOperands{{c, n, n}, b, n, k});
}

// The step fold (matmul_tn_fold in ops.h): C(k x n) += A_t^T B_t, t
// descending. Blocks pack every step of a run of panels that fits in cache
// and sweep the row tiles over the run, each tile folding all the steps.
template <typename Isa>
void fold_steps(StepRows a, StepRows b, std::size_t m, std::size_t k,
                std::size_t n, std::size_t steps, float* c) {
  const std::size_t run = panel_run(m * steps);
  run_blocks(ceil_div(k, Isa::kGemmRows), ceil_div(n, kPanel),
             2 * m * k * n * steps,
             [&](std::size_t t0, std::size_t t1, std::size_t p0,
                 std::size_t p1) {
    const std::size_t panel_floats = steps * m * kPanel;
    std::vector<float> packed(std::min(run, p1 - p0) * panel_floats);
    for (std::size_t r0 = p0; r0 < p1; r0 += run) {
      const std::size_t r1 = std::min(p1, r0 + run);
      for (std::size_t p = r0; p < r1; ++p) {
        for (std::size_t t = 0; t < steps; ++t) {
          pack_gemm_panel(b.data + t * b.step, b.ld, m, n, p,
                          packed.data() + (p - r0) * panel_floats +
                              t * m * kPanel);
        }
      }
      Isa::fold_steps({a.data, a.ld, a.step, packed.data(), c, n, m, k, steps,
                       t0, t1, r0, r1});
    }
  });
}

// matmul over B packed whole (GemmPacked): panel p at panels + p * k *
// kPanel. Serial (a recurrent step's product): the row tiles sweep runs of
// panels that fit in cache, as gemm does over the runs it packs.
template <typename Isa, typename Dst>
void gemm_packed(const float* a, std::size_t lda, std::size_t m,
                 const float* panels, std::size_t k, std::size_t n,
                 const Dst& dst) {
  const std::size_t run = panel_run(k);
  const std::size_t count = ceil_div(n, kPanel);
  for (std::size_t r0 = 0; r0 < count; r0 += run) {
    Isa::gemm({a, lda, 1, panels + r0 * k * kPanel, m, k, 0,
               ceil_div(m, Isa::kGemmRows), r0, std::min(count, r0 + run)},
              dst);
  }
}

// One kPanel-column panel of B^T for the matmul_nt family: row q holds
// b[jj * ldb + q] in lane jj for the first `width` lanes, zeros past them,
// for q in [0, len).
void pack_nt_panel(const float* b, std::size_t ldb, std::size_t len,
                   std::size_t width, double* dst) {
  for (std::size_t jj = 0; jj < kPanel; ++jj) {
    if (jj >= width) {
      for (std::size_t q = 0; q < len; ++q) dst[q * kPanel + jj] = 0.0;
      continue;
    }
    const float* brow = b + jj * ldb;
    for (std::size_t q = 0; q < len; ++q) dst[q * kPanel + jj] = brow[q];
  }
}

// Widens `rows` rows of `len` floats, row i at a + i * lda, into dst (row
// stride len).
template <typename Isa>
void widen_rows(const float* a, std::size_t lda, std::size_t rows,
                std::size_t len, typename Isa::WideA* dst) {
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t q = 0; q < len; ++q)
      Isa::widen(a[i * lda + q], dst[i * len + q]);
}

// matmul_nt over packed B (see ops.h): the r columns of C in ceil(r /
// kPanel) panels of k rows each, panel p at panels + p * k * kPanel. A is
// widened to doubles (Isa::widen) in chunks of kWideRows rows, which bounds
// that copy; blocks sweep their row tiles over each of their panels. Only
// with fan_out may the blocks go to the pool.
template <typename Isa>
void nt_packed(const float* a, std::size_t lda, std::size_t m,
               const double* panels, std::size_t r, std::size_t k, float* c,
               bool fan_out) {
  std::vector<typename Isa::WideA> wide(std::min(kWideRows, m) * k);
  for (std::size_t base = 0; base < m; base += kWideRows) {
    const std::size_t rows = std::min(kWideRows, m - base);
    widen_rows<Isa>(a + base * lda, lda, rows, k, wide.data());
    float* c_rows = c + base * r;
    // 0 flops stays below the pool threshold.
    run_blocks(ceil_div(rows, Isa::kNtRows), ceil_div(r, kPanel),
               fan_out ? 2 * rows * r * k : 0,
               [&](std::size_t t0, std::size_t t1, std::size_t p0,
                   std::size_t p1) {
      for (std::size_t p = p0; p < p1; ++p) {
        const std::size_t j0 = p * kPanel;
        Isa::template nt<false>({wide.data(), panels + p * k * kPanel,
                                 c_rows + j0, rows, k, 0, 1, r,
                                 std::min(kPanel, r - j0), t0, t1});
      }
    });
  }
}

// matmul_nt_pair (see ops.h), serially: per chunk of kWideRows rows, A1
// and A2 widened side by side, then every tile.
template <typename Isa>
void nt_pair(const float* a1, std::size_t lda1, const double* panels1,
             std::size_t k1, const float* a2, std::size_t lda2,
             const double* panels2, std::size_t k2, std::size_t m,
             std::size_t r, float* c) {
  std::vector<typename Isa::WideA> wide(std::min(kWideRows, m) * (k1 + k2));
  for (std::size_t base = 0; base < m; base += kWideRows) {
    const std::size_t rows = std::min(kWideRows, m - base);
    typename Isa::WideA* wide1 = wide.data();
    typename Isa::WideA* wide2 = wide1 + rows * k1;
    widen_rows<Isa>(a1 + base * lda1, lda1, rows, k1, wide1);
    widen_rows<Isa>(a2 + base * lda2, lda2, rows, k2, wide2);
    Isa::nt_pair({wide1, wide2, panels1, panels2, c + base * r, rows, k1, k2,
                  r});
  }
}

// C(m x r) += A_s * B_s^T for segments s in order, the fold of the conv
// weight gradient (conv_weight_grad below): A_s is the (m x len) slab at
// a + s * m * len, and pack(j0, width, s, dst) writes the panel of B_s
// holding C's columns [j0, j0 + width): row q (of len) holds B_s[j0 + jj][q]
// in lane jj, zeros past width. A is widened in chunks of kWideRows rows
// (each chunk packs B again, at most 1/kWideRows of the arithmetic). Blocks
// walk their panels, pack runs of segments that fit in L1 and sweep the row
// tiles over each run, so every C element folds its segments in ascending
// order.
template <typename Isa, typename Pack>
void nt_segments(const float* a, std::size_t m, std::size_t r,
                 std::size_t segments, std::size_t len, float* c,
                 const Pack& pack) {
  const std::size_t run = std::max<std::size_t>(
      1, kPackedFloats / (2 * kPanel * std::max<std::size_t>(len, 1)));
  std::vector<typename Isa::WideA> wide(segments * std::min(kWideRows, m) *
                                        len);
  for (std::size_t base = 0; base < m; base += kWideRows) {
    const std::size_t rows = std::min(kWideRows, m - base);
    for (std::size_t s = 0; s < segments; ++s) {
      widen_rows<Isa>(a + (s * m + base) * len, len, rows, len,
                      wide.data() + s * rows * len);
    }
    float* c_rows = c + base * r;
    run_blocks(ceil_div(rows, Isa::kNtRows), ceil_div(r, kPanel),
               2 * rows * r * segments * len,
               [&](std::size_t t0, std::size_t t1, std::size_t p0,
                   std::size_t p1) {
      std::vector<double> panel(std::min(run, segments) * len * kPanel);
      for (std::size_t p = p0; p < p1; ++p) {
        const std::size_t j0 = p * kPanel;
        const std::size_t width = std::min(kPanel, r - j0);
        for (std::size_t s0 = 0; s0 < segments; s0 += run) {
          const std::size_t s1 = std::min(segments, s0 + run);
          for (std::size_t s = s0; s < s1; ++s)
            pack(j0, width, s, panel.data() + (s - s0) * len * kPanel);
          Isa::template nt<true>({wide.data(), panel.data(), c_rows + j0,
                                  rows, len, s0, s1, r, width, t0, t1});
        }
      }
    });
  }
}

// ---- Implicit-GEMM convolution (tensor/conv.h) ----
//
// The forward GEMM and the weight-gradient fold read the patch matrix from
// zero-padded images (conv2d_pad): the tap of patch row kk at output
// (y, x) of sample s is padded[s * padded_image + rows[kk].padded +
// y * stride * padded_w + x * stride], with no bounds test. Column j of the
// patch matrix is output position j % plane of sample j / plane.

// Index in the padded batch of patch row 0's tap for the first `width`
// columns from j0.
void lane_taps(const ConvTaps& taps, std::size_t j0, std::size_t width,
               std::size_t (&at)[kPanel]) {
  const ConvGeom& g = taps.geom;
  const std::size_t oh = g.out_h(), ow = g.out_w(), plane = oh * ow;
  const std::size_t image = taps.padded_image();
  const std::size_t row_step = g.stride * taps.padded_w;
  std::size_t s = j0 / plane, y = j0 % plane / ow, x = j0 % ow;
  for (std::size_t l = 0; l < width; ++l) {
    at[l] = s * image + y * row_step + x * g.stride;
    if (++x == ow) {
      x = 0;
      if (++y == oh) {
        y = 0;
        ++s;
      }
    }
  }
}

// The forward GEMM's B is the patch matrix, packed panel by panel straight
// from the padded images; C goes straight to the (N x out_c x plane)
// output, plus the bias.
struct ConvForwardOperands {
  const ConvTaps* taps;
  const float* padded;
  const float* bias;
  float* out;
  std::size_t out_c, n;

  // Panel p: row kk holds the values im2col writes for patch row kk at the
  // panel's columns, zeros past the last column. Where the panel's taps
  // are consecutive pixels (stride 1 along one output row), each row is
  // one copy.
  void pack(std::size_t p, float* panel) const {
    const ConvGeom& g = taps->geom;
    const std::size_t j0 = p * kPanel;
    const std::size_t width = std::min(kPanel, n * g.out_h() * g.out_w() - j0);
    std::size_t at[kPanel];
    lane_taps(*taps, j0, width, at);
    const bool consecutive =
        width == kPanel && at[kPanel - 1] - at[0] == kPanel - 1;
    const std::size_t rows = taps->rows.size();
    for (std::size_t kk = 0; kk < rows; ++kk) {
      float* dst = panel + kk * kPanel;
      const float* src = padded + taps->rows[kk].padded;
      if (consecutive) {
        std::memcpy(dst, src + at[0], kPanel * sizeof(float));
        continue;
      }
      for (std::size_t l = 0; l < width; ++l) dst[l] = src[at[l]];
      for (std::size_t l = width; l < kPanel; ++l) dst[l] = 0.f;
    }
  }

  // Row r of the tile at row i0 and panel p is output channel i0 + r at
  // the panel's columns, which may span samples.
  struct Store {
    float* out;
    const float* bias;
    std::size_t out_c, plane, s, q, width;
    template <typename F, std::size_t V>
    APF_TILE void operator()(std::size_t r, const F (&acc)[V]) const {
      F row[V];
      for (std::size_t v = 0; v < V; ++v)
        row[v] = bias != nullptr ? acc[v] + bias[r] : acc[v];
      float* dst = out + (s * out_c + r) * plane + q;
      if (q + width <= plane) {
        store_row(dst, width, row);
        return;
      }
      float buf[kPanel];
      store_row(buf, kPanel, row);
      std::size_t done = plane - q;
      std::copy(buf, buf + done, dst);
      for (std::size_t next = s + 1; done < width; ++next) {
        const std::size_t len = std::min(plane, width - done);
        std::copy(buf + done, buf + done + len,
                  out + (next * out_c + r) * plane);
        done += len;
      }
    }
  };
  Store tile(std::size_t i0, std::size_t p) const {
    const ConvGeom& g = taps->geom;
    const std::size_t plane = g.out_h() * g.out_w();
    const std::size_t j0 = p * kPanel;
    return {out + i0 * plane, bias == nullptr ? nullptr : bias + i0, out_c,
            plane, j0 / plane, j0 % plane,
            std::min(kPanel, n * plane - j0)};
  }
};

// Index of the pixel tap row t reads at output (y, x) of sample s in the
// unpadded images (valid taps only).
std::ptrdiff_t tap_index(const ConvTaps::Row& t, std::size_t image,
                         std::size_t s, std::size_t row_step, std::size_t y,
                         std::size_t stride, std::size_t x) {
  return static_cast<std::ptrdiff_t>(s * image + y * row_step + x * stride) +
         t.origin;
}

// Panel p of gy, the (out_c x N*plane) matrix whose column s * plane + q
// is output position q of sample s in the (N x out_c x plane) grad_out:
// row o holds output channel o at the panel's columns, zeros past the end.
void pack_grad_panel(const float* grad_out, std::size_t out_c,
                     std::size_t plane, std::size_t n, std::size_t p,
                     float* panel) {
  const std::size_t j0 = p * kPanel;
  const std::size_t width = std::min(kPanel, n * plane - j0);
  const std::size_t s = j0 / plane, q = j0 % plane;
  for (std::size_t o = 0; o < out_c; ++o) {
    float* dst = panel + o * kPanel;
    if (width == kPanel && q + kPanel <= plane) {
      std::memcpy(dst, grad_out + (s * out_c + o) * plane + q,
                  kPanel * sizeof(float));
      continue;
    }
    for (std::size_t jj = 0; jj < kPanel; ++jj) {
      const std::size_t j = j0 + jj;
      dst[jj] = jj < width
                    ? grad_out[((j / plane) * out_c + o) * plane + j % plane]
                    : 0.f;
    }
  }
}

// The strip: row r of the tile at panel p goes to strip + r * ld +
// (p - p0) * kPanel.
struct StripStore {
  float* strip;
  std::size_t ld, p0;
  RowStore<false> tile(std::size_t /*i0*/, std::size_t p) const {
    return {strip + (p - p0) * kPanel, ld, kPanel};
  }
};

// dst[i] += src[i] for i in [0, count); the two never overlap.
void add_run(float* __restrict dst, const float* __restrict src,
             std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) dst[i] += src[i];
}

// Adds patch row kk of samples [s0, s1) into their images, the row read
// from src (sample s at src + (s - s0) * plane): col2im's loop for one row.
// At stride 1 with out_w == in_w a row's valid taps are one run of the
// image shifted by its origin, so the run is added in one loop; the taps
// the run passes in the padding (at the row ends) are zeroed in src first.
// Adding +0 leaves a gradient pixel's bits alone, because the pixels start
// at +0 and a sum that starts at +0 is never -0.
void add_patch_row(const ConvTaps& taps, std::size_t kk, float* src,
                   std::size_t s0, std::size_t s1, float* images) {
  const ConvGeom& g = taps.geom;
  const ConvTaps::Row& t = taps.rows[kk];
  if (t.y_lo >= t.y_hi || t.x_lo >= t.x_hi) return;
  const std::size_t ow = g.out_w(), stride = g.stride;
  const std::size_t plane = g.out_h() * ow;
  const std::size_t image = g.channels * g.in_h * g.in_w;
  const std::size_t row_step = stride * g.in_w;
  const bool same_width = stride == 1 && ow == g.in_w;
  if (same_width) {
    // The columns whose taps fall in the padding, in every output row of
    // every sample (the samples' rows are ow floats apart throughout src).
    const std::size_t lines = (s1 - s0) * g.out_h();
    const auto zero_column = [&](std::size_t x) {
      for (std::size_t line = 0; line < lines; ++line) src[line * ow + x] = 0.f;
    };
    for (std::size_t x = 0; x < t.x_lo; ++x) zero_column(x);
    for (std::size_t x = t.x_hi; x < ow; ++x) zero_column(x);
  }
  for (std::size_t s = s0; s < s1; ++s) {
    float* from = src + (s - s0) * plane;
    if (same_width) {
      const std::size_t begin = t.y_lo * ow + t.x_lo;
      add_run(images + tap_index(t, image, s, row_step, t.y_lo, 1, t.x_lo),
              from + begin, (t.y_hi - 1) * ow + t.x_hi - begin);
      continue;
    }
    for (std::size_t y = t.y_lo; y < t.y_hi; ++y) {
      const float* row = from + y * ow;
      float* dst = images + tap_index(t, image, s, row_step, y, stride, t.x_lo);
      const std::size_t count = t.x_hi - t.x_lo;
      if (stride == 1) {
        for (std::size_t x = 0; x < count; ++x) dst[x] += row[t.x_lo + x];
      } else {
        for (std::size_t x = 0; x < count; ++x)
          dst[x * stride] += row[t.x_lo + x];
      }
    }
  }
}

template <typename Isa>
void conv_forward(const float* weight, std::size_t out_c, const float* bias,
                  const float* padded, std::size_t n, const ConvTaps& taps,
                  float* out) {
  const std::size_t k = taps.rows.size();
  const std::size_t plane = taps.geom.out_h() * taps.geom.out_w();
  gemm<Isa>(weight, k, 1, out_c, k, n * plane,
            ConvForwardOperands{&taps, padded, bias, out, out_c, n});
}

// The weight-gradient fold: nt_segments with B_s the patch rows of
// sample s, each panel packed straight from the padded image,
// q-major: row q holds the taps of the panel's patch rows at output q.
template <typename Isa>
void conv_weight_grad(const float* grad_out, std::size_t out_c,
                      const float* padded, std::size_t n,
                      const ConvTaps& taps, float* grad_weight) {
  const ConvGeom& g = taps.geom;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t image = taps.padded_image();
  const std::size_t stride = g.stride, row_step = stride * taps.padded_w;
  nt_segments<Isa>(
      grad_out, out_c, taps.rows.size(), n, oh * ow, grad_weight,
      [&](std::size_t j0, std::size_t width, std::size_t s, double* dst) {
        const float* src[kPanel];
        for (std::size_t l = 0; l < width; ++l)
          src[l] = padded + s * image + taps.rows[j0 + l].padded;
        for (std::size_t y = 0; y < oh; ++y) {
          for (std::size_t x = 0; x < ow; ++x, dst += kPanel) {
            const std::size_t at = y * row_step + x * stride;
            if (width == kPanel) {
              for (std::size_t l = 0; l < kPanel; ++l) dst[l] = src[l][at];
              continue;
            }
            for (std::size_t l = 0; l < kPanel; ++l)
              dst[l] = l < width ? src[l][at] : 0.0;
          }
        }
      });
}

// The input gradient's GEMM is W^T (K x out_c) times gy (out_c x N*plane),
// its B panels packed straight from the (N x out_c x plane) output
// gradient. It runs in groups of whole samples, for each row tile of K
// storing the group's tiles into a strip of rows, then adding the strip to
// the gradient images row by row, as col2im adds patch rows.
template <typename Isa>
void conv_input_grad(const float* weight, std::size_t out_c,
                     const float* grad_out, std::size_t n,
                     const ConvTaps& taps, float* grad_input) {
  const ConvGeom& g = taps.geom;
  const std::size_t k = taps.rows.size();
  const std::size_t plane = g.out_h() * g.out_w();
  constexpr std::size_t kRows = Isa::kGemmRows;
  // Groups of whole samples whose packed panels and strip fit in L1.
  const std::size_t group = std::max<std::size_t>(
      1, kPackedFloats / ((out_c + kRows) * plane));
  // Samples [s0, s1), one group at a time. A panel that straddles two
  // groups is computed in both; each adds only its own samples' columns.
  const auto samples = [&](std::size_t s0, std::size_t s1) {
    const std::size_t most =
        ceil_div(std::min(group, s1 - s0) * plane, kPanel) + 1;
    std::vector<float> packed(most * out_c * kPanel);
    std::vector<float> strip(kRows * most * kPanel);
    const std::size_t ld = most * kPanel;
    for (std::size_t g0 = s0; g0 < s1; g0 += group) {
      const std::size_t g1 = std::min(s1, g0 + group);
      const std::size_t p0 = g0 * plane / kPanel;
      const std::size_t p1 = ceil_div(g1 * plane, kPanel);
      for (std::size_t p = p0; p < p1; ++p)
        pack_grad_panel(grad_out, out_c, plane, n, p,
                        packed.data() + (p - p0) * out_c * kPanel);
      float* first = strip.data() + (g0 * plane - p0 * kPanel);
      for (std::size_t i0 = 0; i0 < k; i0 += kRows) {
        Isa::gemm({weight + i0, 1, k, packed.data(), k - i0, out_c, 0, 1, p0,
                   p1},
                  StripStore{strip.data(), ld, p0});
        for (std::size_t r = 0; r < std::min(kRows, k - i0); ++r)
          add_patch_row(taps, i0 + r, first + r * ld, g0, g1, grad_input);
      }
    }
  };
  if (!use_pool(2 * k * out_c * n * plane)) {
    samples(0, n);
    return;
  }
  const std::size_t lanes = std::min(n, util::compute_pool().lanes());
  util::compute_pool().parallel_for(lanes, [&](std::size_t i) {
    samples(i * n / lanes, (i + 1) * n / lanes);
  });
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  APF_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  APF_CHECK_MSG(b.dim(0) == k, "matmul inner dims " << k << " vs " << b.dim(0));
  Tensor c({m, n});
  simd::with_isa<Tiles>([&](auto isa) {
    gemm_matrix<decltype(isa)>(a.raw(), k, 1, b.raw(), c.raw(), m, k, n);
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
    gemm_matrix<decltype(isa)>(a.raw(), 1, k, b.raw(), c.raw(), k, m, n);
  });
  return c;
}

void matmul_tn_fold(StepRows a, StepRows b, std::size_t m, std::size_t k,
                    std::size_t n, std::size_t steps, float* c) {
  APF_CHECK_MSG(a.ld >= k && b.ld >= n, "matmul_tn_fold row strides "
                                            << a.ld << ", " << b.ld << " < "
                                            << k << ", " << n);
  simd::with_isa<Tiles>([&](auto isa) {
    fold_steps<decltype(isa)>(a, b, m, k, n, steps, c);
  });
}

GemmPacked::GemmPacked(const Tensor& b) {
  APF_CHECK(b.rank() == 2);
  rows_ = b.dim(0);
  cols_ = b.dim(1);
  panels_.resize(ceil_div(cols_, kPanel) * rows_ * kPanel);
  for (std::size_t p = 0; p < ceil_div(cols_, kPanel); ++p) {
    pack_gemm_panel(b.raw(), cols_, rows_, cols_, p,
                    panels_.data() + p * rows_ * kPanel);
  }
}

void matmul_packed(const float* a, std::size_t lda, std::size_t m,
                   const GemmPacked& b, float* c, std::size_t ldc,
                   bool fold) {
  const std::size_t k = b.rows_, n = b.cols_;
  APF_CHECK_MSG(lda >= k && ldc >= n, "matmul_packed row strides "
                                          << lda << ", " << ldc << " < "
                                          << k << ", " << n);
  simd::with_isa<Tiles>([&](auto isa) {
    using Isa = decltype(isa);
    if (fold) {
      gemm_packed<Isa>(a, lda, m, b.panels_.data(), k, n,
                       MatrixStore<true>{c, ldc, n});
    } else {
      gemm_packed<Isa>(a, lda, m, b.panels_.data(), k, n,
                       MatrixStore<false>{c, ldc, n});
    }
  });
}

NtPacked::NtPacked(const Tensor& b) {
  APF_CHECK(b.rank() == 2);
  rows_ = b.dim(0);
  cols_ = b.dim(1);
  panels_.resize(ceil_div(rows_, kPanel) * cols_ * kPanel);
  for (std::size_t j0 = 0; j0 < rows_; j0 += kPanel) {
    pack_nt_panel(b.raw() + j0 * cols_, cols_, cols_,
                  std::min(kPanel, rows_ - j0), panels_.data() + j0 * cols_);
  }
}

void matmul_nt(const float* a, std::size_t lda, std::size_t m,
               const NtPacked& b, float* c) {
  const std::size_t r = b.rows_, k = b.cols_;
  APF_CHECK_MSG(lda >= k, "matmul_nt row stride " << lda << " < " << k);
  simd::with_isa<Tiles>([&](auto isa) {
    nt_packed<decltype(isa)>(a, lda, m, b.panels_.data(), r, k, c, false);
  });
}

void matmul_nt_pair(const float* a1, std::size_t lda1, const NtPacked& b1,
                    const float* a2, std::size_t lda2, const NtPacked& b2,
                    std::size_t m, float* c) {
  const std::size_t r = b1.rows_, k1 = b1.cols_, k2 = b2.cols_;
  APF_CHECK_MSG(b2.rows_ == r, "matmul_nt_pair products have "
                                   << r << " and " << b2.rows_ << " columns");
  APF_CHECK_MSG(lda1 >= k1 && lda2 >= k2, "matmul_nt_pair row strides "
                                              << lda1 << ", " << lda2
                                              << " < " << k1 << ", " << k2);
  simd::with_isa<Tiles>([&](auto isa) {
    nt_pair<decltype(isa)>(a1, lda1, b1.panels_.data(), k1, a2, lda2,
                           b2.panels_.data(), k2, m, r, c);
  });
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  // C(m x r) = A * B^T where A is (m x k), B is (r x k).
  APF_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), r = b.dim(0);
  APF_CHECK(b.dim(1) == k);
  Tensor c({m, r});
  const NtPacked packed(b);
  simd::with_isa<Tiles>([&](auto isa) {
    nt_packed<decltype(isa)>(a.raw(), k, m, packed.panels_.data(), r, k,
                             c.raw(), true);
  });
  return c;
}

void conv2d_forward(const float* weight, std::size_t out_c, const float* bias,
                    const float* padded, std::size_t n, const ConvTaps& taps,
                    float* out) {
  simd::with_isa<Tiles>([&](auto isa) {
    conv_forward<decltype(isa)>(weight, out_c, bias, padded, n, taps, out);
  });
}

void conv2d_weight_grad(const float* grad_out, std::size_t out_c,
                        const float* padded, std::size_t n,
                        const ConvTaps& taps, float* grad_weight) {
  simd::with_isa<Tiles>([&](auto isa) {
    conv_weight_grad<decltype(isa)>(grad_out, out_c, padded, n, taps,
                                    grad_weight);
  });
}

void conv2d_input_grad(const float* weight, std::size_t out_c,
                       const float* grad_out, std::size_t n,
                       const ConvTaps& taps, float* grad_input) {
  simd::with_isa<Tiles>([&](auto isa) {
    conv_input_grad<decltype(isa)>(weight, out_c, grad_out, n, taps,
                                   grad_input);
  });
}

const char* gemm_simd_path() {
  const char* name = nullptr;
  simd::with_isa<Tiles>([&](auto isa) { name = decltype(isa)::kName; });
  return name;
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
