#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "tensor/kernels.h"

namespace llmfi::tn {

namespace {

void check_2d(const Tensor& t, const char* what) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(what) + ": tensor must be 2-D");
  }
}

// Parallelize only when the work amortizes thread startup.
constexpr Index kParallelFlops = 1 << 16;

// Per-row all-finite flags for the accumulating GEMMs' zero-skip fast
// path. Skipping `0 * row` is only IEEE-legal when the row is known
// finite: 0 * inf and 0 * NaN are NaN contributions that the skip would
// silently drop, breaking the fault-propagation semantics documented on
// softmax_rows_inplace (a masked corruption would look like a masked
// fault in the campaign data).
std::vector<unsigned char> finite_rows(const float* p, Index rows,
                                       Index cols) {
  std::vector<unsigned char> finite(static_cast<size_t>(rows), 1);
  for (Index r = 0; r < rows; ++r) {
    const float* row = p + r * cols;
    for (Index j = 0; j < cols; ++j) {
      if (!std::isfinite(row[j])) {
        finite[static_cast<size_t>(r)] = 0;
        break;
      }
    }
  }
  return finite;
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_2d(a, "matmul lhs");
  check_2d(b, "matmul rhs");
  const Index m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k) throw std::invalid_argument("matmul: inner dim mismatch");
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const auto b_finite = finite_rows(pb, k, n);
  const bool parallel = m * n * k >= kParallelFlops;
#pragma omp parallel for schedule(static) if (parallel)
  for (Index i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    for (Index l = 0; l < k; ++l) {
      const float av = pa[i * k + l];
      if (av == 0.0f && b_finite[static_cast<size_t>(l)]) continue;
      const float* brow = pb + l * n;
      for (Index j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  return matmul_bt_tier(a, b, kernel_tier());
}

Tensor matmul_bt_reference(const Tensor& a, const Tensor& b) {
  check_2d(a, "matmul_bt lhs");
  check_2d(b, "matmul_bt rhs");
  const Index m = a.rows(), k = a.cols(), n = b.rows();
  if (b.cols() != k) {
    throw std::invalid_argument("matmul_bt: inner dim mismatch");
  }
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const bool parallel = m * n * k >= kParallelFlops;
  // 4-row blocks go through the shared out-of-line reference kernel so
  // this oracle, the fused Reference branch, and the tensor-parallel
  // slices all run one codegen of the same sequential reduction loop
  // (per-element results are scheduling-independent, so neither the
  // blocking nor the OpenMP split ever changes bits).
  const Index blocks = (m + 3) / 4;
#pragma omp parallel for schedule(static) if (parallel)
  for (Index blk = 0; blk < blocks; ++blk) {
    const Index i = blk * 4;
    detail::gemm_bt_reference_range(pa + i * k, std::min<Index>(4, m - i), k,
                                    0, k, pb, k, 0, n, pc + i * n, n);
  }
  return c;
}

Tensor matmul_at(const Tensor& a, const Tensor& b) {
  check_2d(a, "matmul_at lhs");
  check_2d(b, "matmul_at rhs");
  const Index m = a.rows(), n = a.cols(), k = b.cols();
  if (b.rows() != m) {
    throw std::invalid_argument("matmul_at: inner dim mismatch");
  }
  Tensor c({n, k});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const auto b_finite = finite_rows(pb, m, k);
  const bool parallel = m * n * k >= kParallelFlops;
#pragma omp parallel for schedule(static) if (parallel)
  for (Index j = 0; j < n; ++j) {
    float* crow = pc + j * k;
    for (Index i = 0; i < m; ++i) {
      const float av = pa[i * n + j];
      if (av == 0.0f && b_finite[static_cast<size_t>(i)]) continue;
      const float* brow = pb + i * k;
      for (Index l = 0; l < k; ++l) crow[l] += av * brow[l];
    }
  }
  return c;
}

void add_bias_rows(Tensor& y, const Tensor& bias) {
  check_2d(y, "add_bias_rows");
  if (bias.numel() != y.cols()) {
    throw std::invalid_argument("add_bias_rows: bias size mismatch");
  }
  const Index m = y.rows(), n = y.cols();
  for (Index i = 0; i < m; ++i) {
    auto row = y.row(i);
    for (Index j = 0; j < n; ++j) row[j] += bias[j];
  }
}

void add_inplace(Tensor& y, const Tensor& x) {
  if (y.numel() != x.numel()) {
    throw std::invalid_argument("add_inplace: size mismatch");
  }
  auto yf = y.flat();
  auto xf = x.flat();
  for (size_t i = 0; i < yf.size(); ++i) yf[i] += xf[i];
}

void mul_inplace(Tensor& y, const Tensor& x) {
  if (y.numel() != x.numel()) {
    throw std::invalid_argument("mul_inplace: size mismatch");
  }
  auto yf = y.flat();
  auto xf = x.flat();
  for (size_t i = 0; i < yf.size(); ++i) yf[i] *= xf[i];
}

void scale_inplace(Tensor& y, float s) {
  for (float& v : y.flat()) v *= s;
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  add_inplace(out, b);
  return out;
}

float silu(float x) {
  // x / (1 + e^-x); for very negative x the result underflows to 0.
  return x / (1.0f + std::exp(-x));
}

void silu_inplace(Tensor& x) {
  for (float& v : x.flat()) v = silu(v);
}

void softmax_rows_inplace(Tensor& x) {
  check_2d(x, "softmax_rows");
  // IEEE-faithful semantics (matching PyTorch): a NaN anywhere in a row,
  // or a +inf (exp(inf - inf) = NaN), poisons the entire row with NaN.
  // Fault propagation through corrupted attention depends on this — see
  // the paper's distorted-output analysis (Fig 8).
  const Index m = x.rows();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (Index i = 0; i < m; ++i) {
    auto row = x.row(i);
    float mx = -std::numeric_limits<float>::infinity();
    bool poisoned = false;
    for (float v : row) {
      if (std::isnan(v)) poisoned = true;
      mx = std::max(mx, v);
    }
    if (poisoned || !std::isfinite(mx)) {
      std::fill(row.begin(), row.end(), nan);
      continue;
    }
    float sum = 0.0f;
    for (float& v : row) {
      v = std::exp(v - mx);
      sum += v;
    }
    const float inv = 1.0f / sum;
    for (float& v : row) v *= inv;
  }
}

Tensor rmsnorm_rows(const Tensor& x, const Tensor& gain, float eps) {
  check_2d(x, "rmsnorm_rows");
  if (gain.numel() != x.cols()) {
    throw std::invalid_argument("rmsnorm_rows: gain size mismatch");
  }
  const Index m = x.rows(), n = x.cols();
  Tensor y({m, n});
  // Sum of squares accumulates in fp32, as GPU kernels do: a huge
  // corrupted element overflows ss to inf, 1/rms becomes 0, and finite
  // elements collapse to 0 (the Fig 6 masking effect) while inf/NaN
  // inputs propagate NaN (inf * 0 = NaN), as in PyTorch.
  for (Index i = 0; i < m; ++i) {
    auto in = x.row(i);
    auto out = y.row(i);
    float ss = 0.0f;
    for (float v : in) ss += v * v;
    const float rms = std::sqrt(ss / static_cast<float>(n) + eps);
    const float inv = 1.0f / rms;
    for (Index j = 0; j < n; ++j) {
      out[j] = in[j] * inv * gain[j];
    }
  }
  return y;
}

Index argmax_row(const Tensor& x, Index r) {
  auto row = x.row(r);
  // PyTorch argmax semantics: NaN compares as the greatest value, so a
  // NaN-poisoned logit row deterministically yields the first NaN index
  // — the mechanism behind "repeated meaningless tokens" distortions.
  Index best = 0;
  float best_v = row[0];
  for (Index j = 0; j < static_cast<Index>(row.size()); ++j) {
    const float v = row[static_cast<size_t>(j)];
    if (std::isnan(v)) return j;
    if (j > 0 && v > best_v) {
      best_v = v;
      best = j;
    }
  }
  return best;
}

float logsumexp_row(const Tensor& x, Index r) {
  auto row = x.row(r);
  float mx = -std::numeric_limits<float>::infinity();
  for (float v : row) mx = std::max(mx, v);
  if (!std::isfinite(mx)) return mx;
  double sum = 0.0;
  for (float v : row) sum += std::exp(static_cast<double>(v - mx));
  return mx + static_cast<float>(std::log(sum));
}

ValueStats value_stats(const Tensor& x, float extreme_threshold) {
  ValueStats s;
  if (x.numel() == 0) return s;
  s.min = std::numeric_limits<float>::infinity();
  s.max = -std::numeric_limits<float>::infinity();
  // Welford's online moments. The textbook sumsq/n - mean^2 form
  // cancels catastrophically when mean^2 >> variance — exactly the
  // large-mean corrupted-activation regime the range detector profiles
  // (a tensor shifted to ~1e6 by a fault would report stddev 0 or even
  // a negative variance clamped to 0). Welford subtracts the running
  // mean before squaring, so the accumulated m2 stays well-scaled.
  double mean = 0.0, m2 = 0.0;
  Index finite_count = 0;
  for (float v : x.flat()) {
    if (!std::isfinite(v)) {
      ++s.non_finite;
      ++s.extreme;
      continue;
    }
    if (std::fabs(v) > extreme_threshold) ++s.extreme;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    ++finite_count;
    const double delta = static_cast<double>(v) - mean;
    mean += delta / static_cast<double>(finite_count);
    m2 += delta * (static_cast<double>(v) - mean);
  }
  if (finite_count > 0) {
    s.mean = mean;
    s.stddev = std::sqrt(std::max(0.0, m2 / static_cast<double>(finite_count)));
  }
  return s;
}

std::vector<Index> histogram(std::span<const float> values, float lo,
                             float hi, int bins) {
  if (bins <= 0 || !(hi > lo)) {
    throw std::invalid_argument("histogram: invalid bin spec");
  }
  std::vector<Index> counts(static_cast<size_t>(bins), 0);
  const float width = (hi - lo) / static_cast<float>(bins);
  for (float v : values) {
    if (!std::isfinite(v)) continue;
    int b = static_cast<int>((v - lo) / width);
    b = std::clamp(b, 0, bins - 1);
    ++counts[static_cast<size_t>(b)];
  }
  return counts;
}

}  // namespace llmfi::tn
