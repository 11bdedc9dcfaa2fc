#pragma once
// Math kernels over fp32 tensors: GEMM (OpenMP-parallel), elementwise
// activations, normalization, softmax, and value-distribution statistics
// used by the propagation tracer and Fig 13.

#include <span>

#include "tensor/tensor.h"

namespace llmfi::tn {

// C[m,n] = A[m,k] @ B[k,n]. Zero elements of A may skip their update
// only when the corresponding B row is all-finite: 0 * inf and 0 * NaN
// are NaN contributions under IEEE semantics, and dropping them would
// mask corruption the fault studies need to see propagate.
Tensor matmul(const Tensor& a, const Tensor& b);

// C[m,n] = A[m,k] @ B[n,k]^T. This is the Linear-layer form: weights are
// stored [out_features, in_features] so a memory fault in weight row `o`
// corrupts output column `o` for every token (the paper's Fig 5 pattern).
// Dispatches to the active kernel tier (tensor/kernels.h); the default
// Reference tier is matmul_bt_reference below.
Tensor matmul_bt(const Tensor& a, const Tensor& b);

// One sequential-reduction dot chain per output element: the oracle
// tier every fast kernel is gated against ("fast ≡ reference", DESIGN.md
// §13). Runs the register-blocked detail::gemm_bt_reference_range in
// 4-row blocks, bit-identical to the scalar loop.
Tensor matmul_bt_reference(const Tensor& a, const Tensor& b);

// C[n,k] = A[m,n]^T @ B[m,k]. Used by backward passes (dW = dY^T @ X).
// Same zero-skip-only-when-finite rule as matmul.
Tensor matmul_at(const Tensor& a, const Tensor& b);

// y += bias broadcast over rows. bias has b.numel() == y.cols().
void add_bias_rows(Tensor& y, const Tensor& bias);

// Elementwise helpers (shapes must match exactly).
void add_inplace(Tensor& y, const Tensor& x);
void mul_inplace(Tensor& y, const Tensor& x);
void scale_inplace(Tensor& y, float s);
Tensor add(const Tensor& a, const Tensor& b);

// SiLU (x * sigmoid(x)) applied elementwise, as in the Llama MLP.
void silu_inplace(Tensor& x);
float silu(float x);

// Numerically-stable softmax over each row, in place. Rows whose maximum
// is -inf (fully masked) become uniform-zero rows rather than NaN.
void softmax_rows_inplace(Tensor& x);

// RMSNorm over each row: y = x / rms(x) * gain. `gain` has cols entries.
// Non-finite inputs saturate the rms, which is exactly the error-masking
// behaviour the paper attributes to normalization layers (Fig 6).
Tensor rmsnorm_rows(const Tensor& x, const Tensor& gain, float eps = 1e-5f);

// Index of the max element of a row (ties -> lowest index).
Index argmax_row(const Tensor& x, Index r);

// log(sum(exp(row))) with the max-subtraction trick.
float logsumexp_row(const Tensor& x, Index r);

struct ValueStats {
  float min = 0.0f;
  float max = 0.0f;
  double mean = 0.0;
  double stddev = 0.0;
  Index non_finite = 0;
  Index extreme = 0;  // |v| > extreme_threshold or non-finite
};

// Summary statistics over all elements; `extreme_threshold` feeds the
// corruption maps of Figs 5-6.
ValueStats value_stats(const Tensor& x, float extreme_threshold = 1e4f);

// Histogram of values into `bins` equal-width buckets over [lo, hi];
// out-of-range values clamp to the edge buckets. Used for Fig 13.
std::vector<Index> histogram(std::span<const float> values, float lo,
                             float hi, int bins);

}  // namespace llmfi::tn
