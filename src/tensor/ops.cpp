#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/thread_pool.h"

namespace apf {

namespace {
// Kernels fan rows out to the compute pool only when the arithmetic is heavy
// enough to amortize dispatch. Below the threshold (or inside an enclosing
// pool task, where parallel_for runs inline anyway) they stay serial.
// Parallel and serial paths perform bit-identical arithmetic per output
// element, so this decision never changes results.
constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 18;

// Output columns matmul_nt computes together: one panel of packed B rows.
constexpr std::size_t kNtPanel = 8;

bool use_pool(std::size_t flops) {
  if (flops < kParallelFlopThreshold) return false;
  if (util::ThreadPool::in_worker()) return false;
  return util::compute_pool().lanes() > 1;
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  APF_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  APF_CHECK_MSG(b.dim(0) == k, "matmul inner dims " << k << " vs " << b.dim(0));
  Tensor c({m, n});
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  // Each output row is produced start-to-finish by one thread, so the
  // per-element accumulation order is the serial order for any lane count.
  auto compute_row = [&](std::size_t i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval = pa[i * k + kk];
      if (aval == 0.f) continue;
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  };
  if (use_pool(2 * m * k * n)) {
    util::compute_pool().parallel_for(m, compute_row);
  } else {
    for (std::size_t i = 0; i < m; ++i) compute_row(i);
  }
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  // C(k x n) = A^T * B where A is (m x k), B is (m x n).
  APF_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  APF_CHECK(b.dim(0) == m);
  Tensor c({k, n});
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  if (use_pool(2 * m * k * n)) {
    // Output rows (one per kk) are independent; within a row the reduction
    // over i runs ascending, matching the serial kernel's per-element
    // addition order exactly (the i-outer serial loop also touches each
    // (kk, j) element for i = 0, 1, ... with the same zero-skip).
    util::compute_pool().parallel_for(k, [&](std::size_t kk) {
      float* crow = pc + kk * n;
      for (std::size_t i = 0; i < m; ++i) {
        const float aval = pa[i * k + kk];
        if (aval == 0.f) continue;
        const float* brow = pb + i * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
      }
    });
    return c;
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    const float* brow = pb + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval = arow[kk];
      if (aval == 0.f) continue;
      float* crow = pc + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  // C(m x r) = A * B^T where A is (m x k), B is (r x k).
  APF_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), r = b.dim(0);
  APF_CHECK(b.dim(1) == k);
  Tensor c({m, r});
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  // Pack B into zero-padded, k-major panels of kNtPanel rows (see ops.h).
  const std::size_t panels = (r + kNtPanel - 1) / kNtPanel;
  std::vector<float> packed(panels * k * kNtPanel, 0.f);
  for (std::size_t j = 0; j < r; ++j) {
    float* dst = packed.data() + (j / kNtPanel) * k * kNtPanel + j % kNtPanel;
    const float* brow = pb + j * k;
    for (std::size_t kk = 0; kk < k; ++kk) dst[kk * kNtPanel] = brow[kk];
  }
  // The inner loop vectorizes across a panel's independent columns; each
  // C[i][j] still sums its k products in ascending kk, as the scalar dot
  // product does. float*float is exact in double, so FMA contraction cannot
  // change a result either. Padded lanes are computed and dropped.
  auto compute_row = [&](std::size_t i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * r;
    for (std::size_t p = 0; p < panels; ++p) {
      const float* panel = packed.data() + p * k * kNtPanel;
      double acc[kNtPanel] = {};
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double av = arow[kk];
        const float* bcol = panel + kk * kNtPanel;
        for (std::size_t jj = 0; jj < kNtPanel; ++jj) acc[jj] += av * bcol[jj];
      }
      const std::size_t j0 = p * kNtPanel;
      const std::size_t width = std::min(kNtPanel, r - j0);
      for (std::size_t jj = 0; jj < width; ++jj)
        crow[j0 + jj] = static_cast<float>(acc[jj]);
    }
  };
  if (use_pool(2 * m * k * r)) {
    util::compute_pool().parallel_for(m, compute_row);
  } else {
    for (std::size_t i = 0; i < m; ++i) compute_row(i);
  }
  return c;
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
