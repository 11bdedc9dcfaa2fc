#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "tensor/ops.h"

namespace llmfi::tn {

namespace {

KernelTier tier_from_env() {
  const char* v = std::getenv("LLMFI_KERNEL");
  if (v == nullptr || *v == '\0') return KernelTier::Reference;
  KernelTier t;
  if (!parse_kernel_tier(v, &t)) {
    std::fprintf(stderr,
                 "llmfi: LLMFI_KERNEL=\"%s\" is not one of "
                 "reference|portable|avx2|auto\n",
                 v);
    std::exit(2);
  }
  if (t == KernelTier::Avx2 && !cpu_supports_avx2()) {
    std::fprintf(stderr,
                 "llmfi: LLMFI_KERNEL=avx2 but this CPU lacks AVX2/FMA; "
                 "falling back to portable\n");
    return KernelTier::Portable;
  }
  return t;
}

std::atomic<KernelTier>& tier_slot() {
  static std::atomic<KernelTier> slot{tier_from_env()};
  return slot;
}

}  // namespace

const char* kernel_tier_name(KernelTier t) {
  switch (t) {
    case KernelTier::Reference:
      return "reference";
    case KernelTier::Portable:
      return "portable";
    case KernelTier::Avx2:
      return "avx2";
  }
  return "?";
}

bool parse_kernel_tier(const std::string& name, KernelTier* out) {
  if (name == "reference") {
    *out = KernelTier::Reference;
  } else if (name == "portable") {
    *out = KernelTier::Portable;
  } else if (name == "avx2") {
    *out = KernelTier::Avx2;
  } else if (name == "auto") {
    *out = best_supported_tier();
  } else {
    return false;
  }
  return true;
}

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

KernelTier best_supported_tier() {
  return cpu_supports_avx2() ? KernelTier::Avx2 : KernelTier::Portable;
}

KernelTier kernel_tier() {
  return tier_slot().load(std::memory_order_relaxed);
}

void set_kernel_tier(KernelTier t) {
  if (t == KernelTier::Avx2 && !cpu_supports_avx2()) {
    throw std::invalid_argument(
        "set_kernel_tier: this CPU lacks AVX2/FMA support");
  }
  tier_slot().store(t, std::memory_order_relaxed);
}

namespace detail {

// Portable microkernel: 4 B-rows per block, 8 source-level accumulator
// lanes per row. The independent lanes make the reduction reassociation
// explicit in the source, so -O2/-O3 vectorizes it without -ffast-math;
// without SIMD hardware it still wins on instruction-level parallelism.
void gemm_bt_portable(const float* pa, Index m, Index k, const float* pb,
                      Index n, float* pc) {
  constexpr Index kLanes = 8;
  for (Index i = 0; i < m; ++i) {
    const float* a = pa + i * k;
    float* c = pc + i * n;
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = pb + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      float acc0[kLanes] = {0}, acc1[kLanes] = {0};
      float acc2[kLanes] = {0}, acc3[kLanes] = {0};
      Index l = 0;
      for (; l + kLanes <= k; l += kLanes) {
        for (Index u = 0; u < kLanes; ++u) {
          const float av = a[l + u];
          acc0[u] += av * b0[l + u];
          acc1[u] += av * b1[l + u];
          acc2[u] += av * b2[l + u];
          acc3[u] += av * b3[l + u];
        }
      }
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (Index u = 0; u < kLanes; ++u) {
        s0 += acc0[u];
        s1 += acc1[u];
        s2 += acc2[u];
        s3 += acc3[u];
      }
      for (; l < k; ++l) {
        const float av = a[l];
        s0 += av * b0[l];
        s1 += av * b1[l];
        s2 += av * b2[l];
        s3 += av * b3[l];
      }
      c[j] = s0;
      c[j + 1] = s1;
      c[j + 2] = s2;
      c[j + 3] = s3;
    }
    for (; j < n; ++j) {
      const float* b = pb + j * k;
      float acc[kLanes] = {0};
      Index l = 0;
      for (; l + kLanes <= k; l += kLanes) {
        for (Index u = 0; u < kLanes; ++u) acc[u] += a[l + u] * b[l + u];
      }
      float s = 0.0f;
      for (Index u = 0; u < kLanes; ++u) s += acc[u];
      for (; l < k; ++l) s += a[l] * b[l];
      c[j] = s;
    }
  }
}

namespace {

// Four adjacent output columns of one A row: lane u holds column j + u.
// GCC generic vectors, so the SIMD width comes from the type and the
// build needs no intrinsics and no runtime dispatch.
typedef float Vec4 __attribute__((vector_size(16)));
typedef int Vec4i __attribute__((vector_size(16)));

// Elements l..l+3 of the four B rows at b, b + ldb, b + 2 ldb, b + 3 ldb,
// transposed in registers: lane u of out[t] is row u's element l + t.
inline void load_b_transposed(const float* b, Index ldb, Index l,
                              Vec4 out[4]) {
  Vec4 r0, r1, r2, r3;
  std::memcpy(&r0, b + l, sizeof(Vec4));
  std::memcpy(&r1, b + ldb + l, sizeof(Vec4));
  std::memcpy(&r2, b + 2 * ldb + l, sizeof(Vec4));
  std::memcpy(&r3, b + 3 * ldb + l, sizeof(Vec4));
  const Vec4 t0 = __builtin_shuffle(r0, r1, Vec4i{0, 4, 1, 5});
  const Vec4 t1 = __builtin_shuffle(r0, r1, Vec4i{2, 6, 3, 7});
  const Vec4 t2 = __builtin_shuffle(r2, r3, Vec4i{0, 4, 1, 5});
  const Vec4 t3 = __builtin_shuffle(r2, r3, Vec4i{2, 6, 3, 7});
  out[0] = __builtin_shuffle(t0, t2, Vec4i{0, 1, 4, 5});
  out[1] = __builtin_shuffle(t0, t2, Vec4i{2, 3, 6, 7});
  out[2] = __builtin_shuffle(t1, t3, Vec4i{0, 1, 4, 5});
  out[3] = __builtin_shuffle(t1, t3, Vec4i{2, 3, 6, 7});
}

// Output columns j..j + 4 NV - 1 of MR A rows. Every output element is
// still the single sequential chain `acc = acc + a[l] * b[l]` over
// l = k0..k1-1 from 0.0f: a lane only ever adds its own column's
// products, in l order, with the multiply and the add rounded separately
// (llmfi_tensor builds with -ffp-contract=off, so no FMA is formed).
// Blocking only runs MR x 4 NV of those chains side by side, which hides
// the add latency the one-chain loop stalls on. B rows are read in place
// at stride ldb, four elements at a time: no packed copy, so corrupted
// weight storage is what the products see.
template <int MR, int NV>
void gemm_bt_reference_block(const float* pa, Index lda, Index k0, Index k1,
                             const float* pb, Index ldb, float* pc,
                             Index ldc) {
  Vec4 acc[MR][NV] = {};
  Index l = k0;
  for (; l + 4 <= k1; l += 4) {
    Vec4 bt[NV][4];
    for (int v = 0; v < NV; ++v) {
      load_b_transposed(pb + 4 * v * ldb, ldb, l, bt[v]);
    }
    for (int r = 0; r < MR; ++r) {
      const float* a = pa + r * lda + l;
      for (int t = 0; t < 4; ++t) {
        for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + a[t] * bt[v][t];
      }
    }
  }
  for (; l < k1; ++l) {
    for (int v = 0; v < NV; ++v) {
      const float* b = pb + 4 * v * ldb;
      const Vec4 bv = {b[l], b[ldb + l], b[2 * ldb + l], b[3 * ldb + l]};
      for (int r = 0; r < MR; ++r) {
        acc[r][v] = acc[r][v] + pa[r * lda + l] * bv;
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    std::memcpy(pc + r * ldc, acc[r], sizeof(acc[r]));
  }
}

// Columns [j0, j1) of MR A rows: 8-column blocks, one 4-column block,
// then the n % 4 tail as the scalar chain itself.
template <int MR>
void gemm_bt_reference_rows(const float* pa, Index lda, Index k0, Index k1,
                            const float* pb, Index ldb, Index j0, Index j1,
                            float* pc, Index ldc) {
  Index j = j0;
  for (; j + 8 <= j1; j += 8) {
    gemm_bt_reference_block<MR, 2>(pa, lda, k0, k1, pb + j * ldb, ldb, pc + j,
                                   ldc);
  }
  if (j + 4 <= j1) {
    gemm_bt_reference_block<MR, 1>(pa, lda, k0, k1, pb + j * ldb, ldb, pc + j,
                                   ldc);
    j += 4;
  }
  for (; j < j1; ++j) {
    const float* brow = pb + j * ldb;
    for (int r = 0; r < MR; ++r) {
      const float* arow = pa + r * lda;
      float acc = 0.0f;
      for (Index l = k0; l < k1; ++l) acc += arow[l] * brow[l];
      pc[r * ldc + j] = acc;
    }
  }
}

}  // namespace

__attribute__((noinline)) void gemm_bt_reference_range(
    const float* pa, Index m, Index lda, Index k0, Index k1, const float* pb,
    Index ldb, Index j0, Index j1, float* pc, Index ldc) {
  Index i = 0;
  for (; i + 4 <= m; i += 4) {
    gemm_bt_reference_rows<4>(pa + i * lda, lda, k0, k1, pb, ldb, j0, j1,
                              pc + i * ldc, ldc);
  }
  const float* a = pa + i * lda;
  float* c = pc + i * ldc;
  switch (m - i) {
    case 3:
      gemm_bt_reference_rows<3>(a, lda, k0, k1, pb, ldb, j0, j1, c, ldc);
      break;
    case 2:
      gemm_bt_reference_rows<2>(a, lda, k0, k1, pb, ldb, j0, j1, c, ldc);
      break;
    case 1:
      gemm_bt_reference_rows<1>(a, lda, k0, k1, pb, ldb, j0, j1, c, ldc);
      break;
  }
}

void gemm_bt_krange_portable(const float* pa, Index m, Index lda, Index k0,
                             Index k1, const float* pb, Index ldb, Index n,
                             float* pc, Index ldc) {
  constexpr Index kLanes = 8;
  for (Index i = 0; i < m; ++i) {
    const float* a = pa + i * lda;
    float* c = pc + i * ldc;
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = pb + j * ldb;
      const float* b1 = b0 + ldb;
      const float* b2 = b1 + ldb;
      const float* b3 = b2 + ldb;
      float acc0[kLanes] = {0}, acc1[kLanes] = {0};
      float acc2[kLanes] = {0}, acc3[kLanes] = {0};
      Index l = k0;
      for (; l + kLanes <= k1; l += kLanes) {
        for (Index u = 0; u < kLanes; ++u) {
          const float av = a[l + u];
          acc0[u] += av * b0[l + u];
          acc1[u] += av * b1[l + u];
          acc2[u] += av * b2[l + u];
          acc3[u] += av * b3[l + u];
        }
      }
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (Index u = 0; u < kLanes; ++u) {
        s0 += acc0[u];
        s1 += acc1[u];
        s2 += acc2[u];
        s3 += acc3[u];
      }
      for (; l < k1; ++l) {
        const float av = a[l];
        s0 += av * b0[l];
        s1 += av * b1[l];
        s2 += av * b2[l];
        s3 += av * b3[l];
      }
      c[j] = s0;
      c[j + 1] = s1;
      c[j + 2] = s2;
      c[j + 3] = s3;
    }
    for (; j < n; ++j) {
      const float* b = pb + j * ldb;
      float acc[kLanes] = {0};
      Index l = k0;
      for (; l + kLanes <= k1; l += kLanes) {
        for (Index u = 0; u < kLanes; ++u) acc[u] += a[l + u] * b[l + u];
      }
      float s = 0.0f;
      for (Index u = 0; u < kLanes; ++u) s += acc[u];
      for (; l < k1; ++l) s += a[l] * b[l];
      c[j] = s;
    }
  }
}

void qgemm_bt_portable(const float* pa, Index m, Index k,
                       const std::int8_t* pw, const float* pscales,
                       Index groups_per_row, int group_size, Index n,
                       float* pc) {
  constexpr Index kLanes = 8;
  for (Index i = 0; i < m; ++i) {
    const float* a = pa + i * k;
    float* c = pc + i * n;
    for (Index j = 0; j < n; ++j) {
      const std::int8_t* w = pw + j * k;
      const float* scales = pscales + j * groups_per_row;
      float y = 0.0f;
      for (Index g = 0; g < groups_per_row; ++g) {
        const Index l0 = g * group_size;
        const Index l1 = std::min(k, l0 + group_size);
        float acc[kLanes] = {0};
        Index l = l0;
        for (; l + kLanes <= l1; l += kLanes) {
          for (Index u = 0; u < kLanes; ++u) {
            acc[u] += a[l + u] * static_cast<float>(w[l + u]);
          }
        }
        float partial = 0.0f;
        for (Index u = 0; u < kLanes; ++u) partial += acc[u];
        for (; l < l1; ++l) partial += a[l] * static_cast<float>(w[l]);
        y += partial * scales[g];
      }
      c[j] = y;
    }
  }
}

}  // namespace detail

Tensor matmul_bt_tier(const Tensor& a, const Tensor& b, KernelTier tier) {
  if (tier == KernelTier::Reference) return matmul_bt_reference(a, b);
  if (a.rank() != 2 || b.rank() != 2) {
    throw std::invalid_argument("matmul_bt: tensors must be 2-D");
  }
  const Index m = a.rows(), k = a.cols(), n = b.rows();
  if (b.cols() != k) {
    throw std::invalid_argument("matmul_bt: inner dim mismatch");
  }
  Tensor c({m, n});
  if (tier == KernelTier::Avx2) {
    detail::gemm_bt_avx2(a.data(), m, k, b.data(), n, c.data());
  } else {
    detail::gemm_bt_portable(a.data(), m, k, b.data(), n, c.data());
  }
  return c;
}

void matmul_bt_cols(const float* a, Index m, Index k, const float* b, Index j0,
                    Index j1, float* c, Index ldc, KernelTier tier) {
  if (j0 >= j1) return;
  if (tier == KernelTier::Reference) {
    detail::gemm_bt_reference_range(a, m, k, 0, k, b, k, j0, j1, c, ldc);
    return;
  }
  // Per-row calls into the full-K kernels on the packed B-row subrange:
  // the slice reuses the exact kernel bodies matmul_bt_tier runs, and a
  // 4-aligned j0 keeps the block/remainder grouping in phase with the
  // full product (the bit-identity precondition — see kernels.h).
  for (Index i = 0; i < m; ++i) {
    float* crow = c + i * ldc + j0;
    if (tier == KernelTier::Avx2) {
      detail::gemm_bt_avx2(a + i * k, 1, k, b + j0 * k, j1 - j0, crow);
    } else {
      detail::gemm_bt_portable(a + i * k, 1, k, b + j0 * k, j1 - j0, crow);
    }
  }
}

void matmul_bt_krange(const float* a, Index m, Index lda, Index k0, Index k1,
                      const float* b, Index ldb, Index n, float* c, Index ldc,
                      KernelTier tier) {
  switch (tier) {
    case KernelTier::Reference:
      detail::gemm_bt_reference_range(a, m, lda, k0, k1, b, ldb, 0, n, c, ldc);
      break;
    case KernelTier::Portable:
      detail::gemm_bt_krange_portable(a, m, lda, k0, k1, b, ldb, n, c, ldc);
      break;
    case KernelTier::Avx2:
      detail::gemm_bt_krange_avx2(a, m, lda, k0, k1, b, ldb, n, c, ldc);
      break;
  }
}

std::vector<Tensor> fused_rmsnorm_matmul_bt(const Tensor& x,
                                            const Tensor& gain, float eps,
                                            std::span<const Tensor* const> ws,
                                            KernelTier tier) {
  if (x.rank() != 2) {
    throw std::invalid_argument("fused_rmsnorm_matmul_bt: x must be 2-D");
  }
  const Index m = x.rows(), k = x.cols();
  if (gain.numel() != k) {
    throw std::invalid_argument("fused_rmsnorm_matmul_bt: gain size mismatch");
  }
  std::vector<Tensor> ys;
  ys.reserve(ws.size());
  for (const Tensor* w : ws) {
    if (w->rank() != 2 || w->cols() != k) {
      throw std::invalid_argument(
          "fused_rmsnorm_matmul_bt: weight inner dim mismatch");
    }
    ys.emplace_back(std::vector<Index>{m, w->rows()});
  }

  // Up to four normalized rows at a time, feeding every projection while
  // they are hot (four rows is the Reference kernel's row block). The
  // normalization replicates rmsnorm_rows float-for-float (sequential ss
  // accumulation, in[j] * inv * gain[j]) so the fusion is bit-identical
  // to the unfused pair at any tier — including the IEEE corruption
  // semantics (inf input -> ss inf -> NaN out; huge finite input ->
  // collapse toward 0) the fault studies rely on.
  constexpr Index kRows = 4;
  std::vector<float> h(static_cast<size_t>(kRows * k));
  for (Index i0 = 0; i0 < m; i0 += kRows) {
    const Index rows = std::min(kRows, m - i0);
    for (Index r = 0; r < rows; ++r) {
      auto in = x.row(i0 + r);
      float ss = 0.0f;
      for (float v : in) ss += v * v;
      const float rms = std::sqrt(ss / static_cast<float>(k) + eps);
      const float inv = 1.0f / rms;
      float* hrow = h.data() + r * k;
      for (Index j = 0; j < k; ++j) {
        hrow[j] = in[static_cast<size_t>(j)] * inv * gain[j];
      }
    }
    for (size_t wi = 0; wi < ws.size(); ++wi) {
      const Tensor& w = *ws[wi];
      const Index n = w.rows();
      float* c = ys[wi].data() + i0 * n;
      switch (tier) {
        case KernelTier::Reference:
          // The same out-of-line body as matmul_bt_reference, so the
          // fused/unfused/sharded Reference paths share one codegen of
          // the reduction loop.
          detail::gemm_bt_reference_range(h.data(), rows, k, 0, k, w.data(), k,
                                          0, n, c, n);
          break;
        case KernelTier::Portable:
          detail::gemm_bt_portable(h.data(), rows, k, w.data(), n, c);
          break;
        case KernelTier::Avx2:
          detail::gemm_bt_avx2(h.data(), rows, k, w.data(), n, c);
          break;
      }
    }
  }
  return ys;
}

void fused_rmsnorm_matmul_bt_cols(const Tensor& x, const Tensor& gain,
                                  float eps, std::span<const Tensor* const> ws,
                                  KernelTier tier, Index j0, Index j1,
                                  std::span<float* const> cs, Index ldc) {
  if (x.rank() != 2) {
    throw std::invalid_argument("fused_rmsnorm_matmul_bt_cols: x must be 2-D");
  }
  const Index m = x.rows(), k = x.cols();
  if (gain.numel() != k) {
    throw std::invalid_argument(
        "fused_rmsnorm_matmul_bt_cols: gain size mismatch");
  }
  if (cs.size() != ws.size()) {
    throw std::invalid_argument(
        "fused_rmsnorm_matmul_bt_cols: output count mismatch");
  }
  // Each shard normalizes every row itself (identical float ops, so
  // identical bits — cheaper than a barrier between the norm and the
  // projections) and computes its column slice of each projection.
  std::vector<float> h(static_cast<size_t>(k));
  for (Index i = 0; i < m; ++i) {
    auto in = x.row(i);
    float ss = 0.0f;
    for (float v : in) ss += v * v;
    const float rms = std::sqrt(ss / static_cast<float>(k) + eps);
    const float inv = 1.0f / rms;
    for (Index j = 0; j < k; ++j) {
      h[static_cast<size_t>(j)] = in[static_cast<size_t>(j)] * inv * gain[j];
    }
    for (size_t wi = 0; wi < ws.size(); ++wi) {
      const Tensor& w = *ws[wi];
      if (w.rank() != 2 || w.cols() != k || j1 > w.rows()) {
        throw std::invalid_argument(
            "fused_rmsnorm_matmul_bt_cols: weight shape mismatch");
      }
      matmul_bt_cols(h.data(), 1, k, w.data(), j0, j1, cs[wi] + i * ldc, ldc,
                     tier);
    }
  }
}

KernelGateResult check_matmul_bt_gate(const Tensor& a, const Tensor& b,
                                      const Tensor& ref, const Tensor& fast,
                                      double term_factor) {
  const Index m = a.rows(), k = a.cols(), n = b.rows();
  if (ref.rows() != m || ref.cols() != n || fast.rows() != m ||
      fast.cols() != n || b.cols() != k) {
    throw std::invalid_argument("check_matmul_bt_gate: shape mismatch");
  }
  constexpr double kEps = std::numeric_limits<float>::epsilon();
  KernelGateResult res;
  for (Index i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    for (Index j = 0; j < n; ++j) {
      const float r = ref.at(i, j);
      const float f = fast.at(i, j);
      if (!std::isfinite(r)) {
        // Reordering may legally turn inf into NaN (inf - inf) but must
        // never bring a corrupted element back to a finite value.
        if (std::isfinite(f)) {
          ++res.violations;
          res.worst_excess = std::numeric_limits<double>::infinity();
        }
        continue;
      }
      const float* brow = b.data() + j * k;
      double terms = 0.0;
      for (Index l = 0; l < k; ++l) {
        terms += std::fabs(static_cast<double>(arow[l]) * brow[l]);
      }
      const double bound = term_factor * kEps * terms + 1e-30;
      const double diff = std::fabs(static_cast<double>(f) - r);
      if (!(diff <= bound)) {  // catches NaN in `fast` too
        ++res.violations;
        res.worst_excess = std::max(
            res.worst_excess, std::isfinite(diff) ? diff / bound
                                                  : std::numeric_limits<double>::infinity());
      } else if (bound > 0.0) {
        res.worst_excess = std::max(res.worst_excess, diff / bound);
      }
    }
  }
  return res;
}

}  // namespace llmfi::tn
