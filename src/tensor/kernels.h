#pragma once
// Tiered GEMM kernels (DESIGN.md §13).
//
// Three tiers compute the Linear-layer product C = A @ B^T:
//
//   Reference — one sequential dot-product chain per output element
//               (acc = acc + a[l] * b[l], l ascending, from 0.0f); the
//               oracle every fault-injection campaign runs on and every
//               fast tier is gated against. Register-blocked (up to 4 A
//               rows x 8 columns in GCC generic vectors, one lane per
//               column) without touching any chain's arithmetic, and
//               built with -ffp-contract=off, so it is bit-identical to
//               the scalar loop on every build.
//   Portable  — register-blocked (4 B-rows x 8 source-level lanes)
//               C++ a vectorizing compiler turns into SIMD without any
//               target-specific intrinsics.
//   Avx2      — the same blocking written in AVX2/FMA intrinsics
//               (runtime CPUID-gated; compiled per-function with
//               __attribute__((target))), 8-wide FMA accumulators and a
//               4-way horizontal reduction per output block.
//
// The fast tiers change the reduction order (lane-parallel partial sums
// folded at the end), so their outputs drift from Reference by bounded
// rounding error; check_matmul_bt_gate() is the "fast ≡ reference"
// tolerance gate asserted by tests/test_kernels.cpp and the micro_perf
// kernel harness. The fused RMSNorm+matmul entry point preserves the
// per-element reduction order of its unfused pair exactly, so its gate
// is bit-identity at every tier.
//
// The process-wide active tier (kernel_tier()) defaults to Reference:
// campaigns inject faults on the reference tier so trial outcomes stay
// exactly reproducible across hosts with different SIMD capabilities.
// LLMFI_KERNEL=reference|portable|avx2|auto overrides at startup;
// set_kernel_tier() overrides at runtime (benches, serving).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace llmfi::tn {

enum class KernelTier : std::uint8_t { Reference = 0, Portable = 1, Avx2 = 2 };

const char* kernel_tier_name(KernelTier t);

// Parses "reference" | "portable" | "avx2" | "auto" into a tier ("auto"
// resolves to best_supported_tier()). Returns false on anything else.
bool parse_kernel_tier(const std::string& name, KernelTier* out);

// True when the CPU executing this process supports AVX2 and FMA.
bool cpu_supports_avx2();

// Fastest tier this host can execute: Avx2 when supported, else Portable.
KernelTier best_supported_tier();

// Process-wide tier used by tn::matmul_bt (and therefore every Linear
// layer). Initialized once from LLMFI_KERNEL (unset/empty -> Reference;
// junk aborts loudly, mirroring benchutil::env_int; "avx2" on a host
// without AVX2 warns and falls back to Portable).
KernelTier kernel_tier();

// Overrides the active tier. Throws std::invalid_argument for Avx2 on a
// host without AVX2/FMA support.
void set_kernel_tier(KernelTier t);

// RAII tier pin for tests and benches.
class ScopedKernelTier {
 public:
  explicit ScopedKernelTier(KernelTier t) : prev_(kernel_tier()) {
    set_kernel_tier(t);
  }
  ~ScopedKernelTier() { set_kernel_tier(prev_); }
  ScopedKernelTier(const ScopedKernelTier&) = delete;
  ScopedKernelTier& operator=(const ScopedKernelTier&) = delete;

 private:
  KernelTier prev_;
};

// C[m,n] = A[m,k] @ B[n,k]^T computed at a forced tier (ignores the
// process-wide setting; tn::matmul_bt is this at kernel_tier()).
Tensor matmul_bt_tier(const Tensor& a, const Tensor& b, KernelTier tier);

// Fused RMSNorm + input projections: ys[w] = rmsnorm(x, gain, eps) @
// ws[w]^T without materializing the normalized activation tensor. Each
// row is normalized once (identical float ops to rmsnorm_rows) into a
// scratch block of up to 4 rows that feeds every weight matrix while hot
// in cache — the block input-projection shape (norm1 -> wq/wk/wv,
// norm2 -> gate/up).
// Bit-identical to rmsnorm_rows followed by matmul_bt_tier at the same
// tier, which is exactly what the fusion gate asserts.
std::vector<Tensor> fused_rmsnorm_matmul_bt(const Tensor& x,
                                            const Tensor& gain, float eps,
                                            std::span<const Tensor* const> ws,
                                            KernelTier tier);

// "fast ≡ reference" tolerance gate. For every output element the
// reordered fp32 sum must stay inside the forward-error envelope of
// float summation:
//   |fast - ref| <= term_factor * eps * sum_l |A[i,l]| * |B[j,l]|
// (the condition-number bound: any summation order of k fp32 terms is
// within ~k*eps of any other, relative to the sum of |terms|). Elements
// where the reference is non-finite must be non-finite in fast too —
// SIMD reordering may turn inf into NaN but must never mask corruption.
struct KernelGateResult {
  Index violations = 0;     // elements outside the envelope
  double worst_excess = 0;  // worst |diff| / bound ratio observed
  bool ok() const { return violations == 0; }
};
KernelGateResult check_matmul_bt_gate(const Tensor& a, const Tensor& b,
                                      const Tensor& ref, const Tensor& fast,
                                      double term_factor = 64.0);

// Tensor-parallel kernel entry points (DESIGN.md §14). Both preserve
// the per-element reduction-order contract that makes sharded forward
// passes byte-identical to the serial oracle:
//
//   matmul_bt_cols computes the output-column slice [j0, j1) of
//   A @ B^T by calling the *same* per-tier kernel bodies as
//   matmul_bt_tier on the packed B-row subrange. When j0 is 4-aligned
//   the fast tiers' 4-row block grouping lands on the same elements as
//   in the full product, so the slice is bit-identical to those columns
//   of matmul_bt_tier — the column-parallel all-gather invariant.
//
//   matmul_bt_krange computes a partial product over the K-range
//   [k0, k1) into a caller-provided [m, n] buffer (B rows read at their
//   full stride ldb, so corrupted weight storage stays visible). Its
//   reduction order depends only on (tier, k-range): the segmented
//   row-parallel product calls it once per grid segment at every TP
//   degree, sharded or serial, and folds the partials in a fixed tree.
void matmul_bt_cols(const float* a, Index m, Index k, const float* b, Index j0,
                    Index j1, float* c, Index ldc, KernelTier tier);
void matmul_bt_krange(const float* a, Index m, Index lda, Index k0, Index k1,
                      const float* b, Index ldb, Index n, float* c, Index ldc,
                      KernelTier tier);

// Column slice of fused_rmsnorm_matmul_bt: computes output columns
// [j0, j1) of every projection, writing into cs[w] (row stride ldc) at
// column offset j0. Row normalization replicates the fused kernel
// float-for-float; the products go through matmul_bt_cols, so with
// 4-aligned j0 the slice is bit-identical to those columns of the full
// fused product.
void fused_rmsnorm_matmul_bt_cols(const Tensor& x, const Tensor& gain,
                                  float eps, std::span<const Tensor* const> ws,
                                  KernelTier tier, Index j0, Index j1,
                                  std::span<float* const> cs, Index ldc);

namespace detail {
// Raw-pointer kernels shared with the quantized matmul (qmatmul builds
// its AVX2 path on the same per-group primitives; raw signatures keep
// the tensor library free of quant types). All are single-row-
// deterministic: output element (i, j) has one fixed reduction order.
void gemm_bt_portable(const float* a, Index m, Index k, const float* b,
                      Index n, float* c);
void gemm_bt_avx2(const float* a, Index m, Index k, const float* b, Index n,
                  float* c);

// The Reference tier's sequential dot chains over an arbitrary K-range
// [k0, k1) and B-row range [j0, j1), with explicit strides. Each output
// element is `acc = acc + a[l] * b[l]` for l = k0..k1-1 from 0.0f,
// computed up to 4 rows x 8 columns at a time (the n % 4 column tail
// scalar); B rows are read in place at stride ldb, never packed, so
// corrupted weight storage stays visible. matmul_bt_reference (in 4-row blocks),
// the fused Reference branch, and every sharded Reference slice/partial
// all route through this one (noinline) body, so the campaign oracle
// has exactly one codegen of its reduction loop.
void gemm_bt_reference_range(const float* a, Index m, Index lda, Index k0,
                             Index k1, const float* b, Index ldb, Index j0,
                             Index j1, float* c, Index ldc);

// K-range variants of the fast-tier kernels: same lane blocking as
// gemm_bt_portable / gemm_bt_avx2 but summing only l in [k0, k1), with
// A rows at stride lda and B rows at stride ldb. Used exclusively for
// the segmented row-parallel partials — their reduction order is fixed
// per (tier, k-range) and never compared against the full-K kernels.
void gemm_bt_krange_portable(const float* a, Index m, Index lda, Index k0,
                             Index k1, const float* b, Index ldb, Index n,
                             float* c, Index ldc);
void gemm_bt_krange_avx2(const float* a, Index m, Index lda, Index k0,
                         Index k1, const float* b, Index ldb, Index n, float* c,
                         Index ldc);

// Group-scaled integer GEMM: for each output (i, j),
//   c[i,j] = sum_g scales[j * groups_per_row + g] *
//            (sum_{l in group g} a[i,l] * w[j,l])
// with int8 payloads w (int4 payloads are stored sign-extended in int8).
void qgemm_bt_portable(const float* a, Index m, Index k,
                       const std::int8_t* w, const float* scales,
                       Index groups_per_row, int group_size, Index n,
                       float* c);
void qgemm_bt_avx2(const float* a, Index m, Index k, const std::int8_t* w,
                   const float* scales, Index groups_per_row, int group_size,
                   Index n, float* c);
}  // namespace detail

}  // namespace llmfi::tn
