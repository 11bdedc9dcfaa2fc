// Tests for the tiered GEMM kernel layer (DESIGN.md §13): tier
// parsing/dispatch, the "fast ≡ reference" tolerance gate on every
// dispatch path this host can execute, non-finite propagation (SIMD
// reordering must never mask corruption), bit-identity of the fused
// RMSNorm+matmul entry point against its unfused pair, and bit-identity
// of the register-blocked Reference kernel against the scalar loop it
// replaced (plus a golden hash of its outputs on the engine's shapes).
//
// CI runs this binary three times — LLMFI_KERNEL unset, =portable, and
// =avx2 — so the env-knob test below pins the startup dispatch on both
// fast paths, not just whichever this build's default resolves to.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "numerics/rng.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace llmfi::tn {
namespace {

Tensor random_matrix(Index r, Index c, std::uint64_t seed) {
  num::Rng rng(seed);
  Tensor t({r, c});
  for (float& v : t.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

std::vector<KernelTier> fast_tiers() {
  std::vector<KernelTier> tiers = {KernelTier::Portable};
  if (cpu_supports_avx2()) tiers.push_back(KernelTier::Avx2);
  return tiers;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

TEST(KernelTier, NamesAndParseRoundTrip) {
  for (KernelTier t :
       {KernelTier::Reference, KernelTier::Portable, KernelTier::Avx2}) {
    KernelTier parsed;
    ASSERT_TRUE(parse_kernel_tier(kernel_tier_name(t), &parsed));
    EXPECT_EQ(parsed, t);
  }
  KernelTier out;
  EXPECT_TRUE(parse_kernel_tier("auto", &out));
  EXPECT_EQ(out, best_supported_tier());
  EXPECT_FALSE(parse_kernel_tier("", &out));
  EXPECT_FALSE(parse_kernel_tier("sse9", &out));
  EXPECT_FALSE(parse_kernel_tier("Portable", &out));  // case-sensitive
}

TEST(KernelTier, BestSupportedIsExecutable) {
  const KernelTier best = best_supported_tier();
  EXPECT_NE(best, KernelTier::Reference);
  if (!cpu_supports_avx2()) {
    EXPECT_EQ(best, KernelTier::Portable);
  }
  // Must be settable without throwing.
  ScopedKernelTier pin(best);
  EXPECT_EQ(kernel_tier(), best);
}

TEST(KernelTier, HonorsEnvKnobAtStartup) {
  // The process-wide tier is initialized once from LLMFI_KERNEL. Every
  // tier change in this binary goes through ScopedKernelTier (restored),
  // so by the time this test runs kernel_tier() is the startup value.
  const char* env = std::getenv("LLMFI_KERNEL");
  if (env == nullptr || *env == '\0') {
    EXPECT_EQ(kernel_tier(), KernelTier::Reference);
  } else {
    KernelTier want;
    ASSERT_TRUE(parse_kernel_tier(env, &want));
    if (want == KernelTier::Avx2 && !cpu_supports_avx2()) {
      want = KernelTier::Portable;  // documented warn-and-fall-back
    }
    EXPECT_EQ(kernel_tier(), want);
  }
}

TEST(KernelTier, ScopedPinRestores) {
  const KernelTier before = kernel_tier();
  {
    ScopedKernelTier pin(KernelTier::Portable);
    EXPECT_EQ(kernel_tier(), KernelTier::Portable);
    {
      ScopedKernelTier inner(KernelTier::Reference);
      EXPECT_EQ(kernel_tier(), KernelTier::Reference);
    }
    EXPECT_EQ(kernel_tier(), KernelTier::Portable);
  }
  EXPECT_EQ(kernel_tier(), before);
}

TEST(KernelTier, SetThrowsForUnsupportedAvx2) {
  if (cpu_supports_avx2()) GTEST_SKIP() << "host supports AVX2";
  EXPECT_THROW(set_kernel_tier(KernelTier::Avx2), std::invalid_argument);
}

TEST(KernelDispatch, MatmulBtFollowsProcessTier) {
  const Tensor a = random_matrix(5, 19, 1);
  const Tensor b = random_matrix(7, 19, 2);
  for (KernelTier tier : fast_tiers()) {
    ScopedKernelTier pin(tier);
    EXPECT_TRUE(bit_equal(matmul_bt(a, b), matmul_bt_tier(a, b, tier)));
  }
  ScopedKernelTier pin(KernelTier::Reference);
  EXPECT_TRUE(bit_equal(matmul_bt(a, b), matmul_bt_reference(a, b)));
}

TEST(KernelGate, FastTiersStayInsideReferenceEnvelope) {
  // Ragged shapes on purpose: lane tails (k % 8), block tails (n % 4),
  // and the degenerate k=1 reduction all take different code paths.
  const struct {
    Index m, k, n;
  } shapes[] = {{3, 33, 5}, {4, 8, 4}, {2, 1, 3}, {8, 64, 8}, {1, 257, 9}};
  for (const auto& s : shapes) {
    const Tensor a = random_matrix(s.m, s.k, 11 + s.k);
    const Tensor b = random_matrix(s.n, s.k, 23 + s.n);
    const Tensor ref = matmul_bt_reference(a, b);
    for (KernelTier tier : fast_tiers()) {
      const Tensor fast = matmul_bt_tier(a, b, tier);
      const auto gate = check_matmul_bt_gate(a, b, ref, fast);
      EXPECT_TRUE(gate.ok())
          << kernel_tier_name(tier) << " m=" << s.m << " k=" << s.k
          << " n=" << s.n << ": " << gate.violations
          << " violations, worst excess " << gate.worst_excess;
    }
  }
}

TEST(KernelGate, CatchesACorruptedElement) {
  const Tensor a = random_matrix(4, 16, 3);
  const Tensor b = random_matrix(4, 16, 4);
  const Tensor ref = matmul_bt_reference(a, b);
  Tensor bad = ref;
  bad.at(2, 1) += 1.0f;  // far outside any rounding envelope
  const auto gate = check_matmul_bt_gate(a, b, ref, bad);
  EXPECT_FALSE(gate.ok());
  EXPECT_EQ(gate.violations, 1);
  EXPECT_GT(gate.worst_excess, 1.0);
  // NaN in fast where the reference is finite is corruption, not drift.
  Tensor nan_fast = ref;
  nan_fast.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(check_matmul_bt_gate(a, b, ref, nan_fast).ok());
}

TEST(KernelGate, NonFinitePropagatesOnEveryTier) {
  // A fault-poisoned activation (inf / NaN) must reach the output on the
  // fast tiers too: reordering may legally turn inf into NaN, but a
  // finite result where the reference is non-finite masks the fault.
  Tensor a = random_matrix(3, 12, 5);
  a.at(0, 4) = std::numeric_limits<float>::infinity();
  a.at(1, 7) = std::numeric_limits<float>::quiet_NaN();
  const Tensor b = random_matrix(5, 12, 6);
  const Tensor ref = matmul_bt_reference(a, b);
  for (Index j = 0; j < 5; ++j) {
    ASSERT_FALSE(std::isfinite(ref.at(0, j)));
    ASSERT_TRUE(std::isnan(ref.at(1, j)));
  }
  for (KernelTier tier : fast_tiers()) {
    const Tensor fast = matmul_bt_tier(a, b, tier);
    const auto gate = check_matmul_bt_gate(a, b, ref, fast);
    EXPECT_TRUE(gate.ok()) << kernel_tier_name(tier);
    for (Index j = 0; j < 5; ++j) {
      EXPECT_FALSE(std::isfinite(fast.at(0, j))) << kernel_tier_name(tier);
      EXPECT_FALSE(std::isfinite(fast.at(1, j))) << kernel_tier_name(tier);
    }
  }
}

TEST(FusedKernel, BitIdenticalToUnfusedPairAtEveryTier) {
  const Tensor x = random_matrix(3, 21, 7);  // ragged k on purpose
  const Tensor gain = random_matrix(1, 21, 8);
  const Tensor w0 = random_matrix(6, 21, 9);
  const Tensor w1 = random_matrix(4, 21, 10);
  const Tensor w2 = random_matrix(5, 21, 11);
  const Tensor* ws[] = {&w0, &w1, &w2};
  const float eps = 1e-5f;
  std::vector<KernelTier> tiers = {KernelTier::Reference};
  for (KernelTier t : fast_tiers()) tiers.push_back(t);
  for (KernelTier tier : tiers) {
    const Tensor h = rmsnorm_rows(x, gain, eps);
    const auto fused = fused_rmsnorm_matmul_bt(x, gain, eps, ws, tier);
    ASSERT_EQ(fused.size(), 3u);
    for (size_t w = 0; w < 3; ++w) {
      EXPECT_TRUE(bit_equal(fused[w], matmul_bt_tier(h, *ws[w], tier)))
          << kernel_tier_name(tier) << " weight " << w;
    }
  }
}

// The Reference kernel's defining loop, kept verbatim as the test oracle:
// one sequential `acc += a * b` chain per output element, from 0.0f.
void naive_reference_range(const float* pa, Index m, Index lda, Index k0,
                           Index k1, const float* pb, Index ldb, Index j0,
                           Index j1, float* pc, Index ldc) {
  for (Index i = 0; i < m; ++i) {
    const float* arow = pa + i * lda;
    float* crow = pc + i * ldc;
    for (Index j = j0; j < j1; ++j) {
      const float* brow = pb + j * ldb;
      float acc = 0.0f;
      for (Index l = k0; l < k1; ++l) acc += arow[l] * brow[l];
      crow[j] = acc;
    }
  }
}

// Bitwise equality, except that any NaN matches any NaN (the payload of a
// NaN produced by inf - inf or NaN propagation is not part of the contract).
bool same_bits_or_both_nan(float x, float y) {
  if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
  return std::memcmp(&x, &y, sizeof(float)) == 0;
}

// Values a memory or compute fault can leave in an operand.
float special_value(num::Rng& rng) {
  constexpr float kSpecials[] = {
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -3.5e-39f,  // denormal
      3e38f,
      -3e38f,
  };
  return kSpecials[rng.uniform_u64(std::size(kSpecials))];
}

void fill_operand(std::vector<float>& v, num::Rng& rng) {
  for (float& x : v) {
    x = rng.bernoulli(0.02) ? special_value(rng)
                            : static_cast<float>(rng.normal(0.0, 1.0));
  }
}

TEST(KernelReference, BlockedMatchesNaiveLoopBitwise) {
  // Every row-block tail (m 1-9), every column-block tail (n 1-37 covers
  // each n % 8) and ragged k-ranges (each k % 4), with padded strides so
  // an out-of-range read or write shows. C starts as a sentinel pattern: elements outside [j0, j1)
  // must come back untouched.
  num::Rng rng(2024);
  Index checked = 0, mismatches = 0;
  for (Index m = 1; m <= 9; ++m) {
    for (Index n = 1; n <= 37; ++n) {
      const Index k = static_cast<Index>(rng.uniform_int(1, 100));
      const Index lda = k + static_cast<Index>(rng.uniform_int(0, 3));
      const Index ldb = k + static_cast<Index>(rng.uniform_int(0, 3));
      const Index ldc = n + static_cast<Index>(rng.uniform_int(0, 3));
      Index k0 = 0, k1 = k, j0 = 0, j1 = n;
      if (rng.bernoulli(0.5)) {
        k0 = static_cast<Index>(rng.uniform_int(0, k - 1));
        k1 = static_cast<Index>(rng.uniform_int(k0 + 1, k));
      }
      if (rng.bernoulli(0.5)) {
        j0 = static_cast<Index>(rng.uniform_int(0, n - 1));
        j1 = static_cast<Index>(rng.uniform_int(j0 + 1, n));
      }
      std::vector<float> a(static_cast<size_t>(m * lda));
      std::vector<float> b(static_cast<size_t>(n * ldb));
      fill_operand(a, rng);
      fill_operand(b, rng);
      std::vector<float> want(static_cast<size_t>(m * ldc));
      for (size_t e = 0; e < want.size(); ++e) {
        want[e] = static_cast<float>(e) + 0.25f;
      }
      std::vector<float> got = want;
      naive_reference_range(a.data(), m, lda, k0, k1, b.data(), ldb, j0, j1,
                            want.data(), ldc);
      detail::gemm_bt_reference_range(a.data(), m, lda, k0, k1, b.data(), ldb,
                                      j0, j1, got.data(), ldc);
      for (size_t e = 0; e < want.size(); ++e) {
        ++checked;
        if (!same_bits_or_both_nan(want[e], got[e])) {
          ++mismatches;
          ADD_FAILURE() << "m=" << m << " n=" << n << " k=" << k << " [" << k0
                        << "," << k1 << ") x [" << j0 << "," << j1
                        << ") element " << e << ": want " << want[e]
                        << " got " << got[e];
        }
      }
      // The public Reference entry points reach the same body.
      if (lda == k && ldb == k && ldc == n && k0 == 0 && k1 == k && j0 == 0 &&
          j1 == n) {
        Tensor ta({m, k}), tb({n, k});
        std::memcpy(ta.data(), a.data(), sizeof(float) * a.size());
        std::memcpy(tb.data(), b.data(), sizeof(float) * b.size());
        const Tensor c = matmul_bt_reference(ta, tb);
        for (Index e = 0; e < m * n; ++e) {
          EXPECT_TRUE(same_bits_or_both_nan(c.data()[e], want[e]))
              << "matmul_bt_reference m=" << m << " n=" << n << " k=" << k;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << checked << " elements";
}

TEST(KernelReference, KrangeAndColsEntryPointsMatchNaiveLoop) {
  num::Rng rng(77);
  const Index m = 6, k = 53, n = 23;
  std::vector<float> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(n * k));
  fill_operand(a, rng);
  fill_operand(b, rng);
  std::vector<float> want(static_cast<size_t>(m * n), 0.0f), got = want;
  naive_reference_range(a.data(), m, k, 9, 41, b.data(), k, 0, n, want.data(),
                        n);
  matmul_bt_krange(a.data(), m, k, 9, 41, b.data(), k, n, got.data(), n,
                   KernelTier::Reference);
  for (size_t e = 0; e < want.size(); ++e) {
    EXPECT_TRUE(same_bits_or_both_nan(want[e], got[e])) << "krange " << e;
  }
  naive_reference_range(a.data(), m, k, 0, k, b.data(), k, 5, 18, want.data(),
                        n);
  matmul_bt_cols(a.data(), m, k, b.data(), 5, 18, got.data(), n,
                 KernelTier::Reference);
  for (size_t e = 0; e < want.size(); ++e) {
    EXPECT_TRUE(same_bits_or_both_nan(want[e], got[e])) << "cols " << e;
  }
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(KernelReference, GoldenHash) {
  // Reference outputs on the engine's projection shapes (d_model 48,
  // d_ff 96, a ragged vocab) at decode (m 1, 4) and prefill (m 128)
  // batch sizes. The hash was recorded from the original scalar dot
  // loop: any change to the Reference reduction order shows here.
  constexpr Index kVocab = 203;
  const struct {
    Index n, k;
  } shapes[] = {{48, 48}, {96, 48}, {48, 96}, {kVocab, 48}};
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::uint64_t seed = 100;
  for (const auto& s : shapes) {
    const Tensor w = random_matrix(s.n, s.k, ++seed);
    for (Index m : {1, 4, 128}) {
      const Tensor x = random_matrix(m, s.k, ++seed);
      const Tensor y = matmul_bt_reference(x, w);
      h = fnv1a(h, y.data(), sizeof(float) * static_cast<size_t>(y.numel()));
    }
  }
  EXPECT_EQ(h, 0x6276e97c9cd753eaull);
}

TEST(FusedKernel, ValidatesShapes) {
  const Tensor x = random_matrix(2, 8, 1);
  const Tensor gain = random_matrix(1, 8, 2);
  const Tensor w_ok = random_matrix(3, 8, 3);
  const Tensor w_bad = random_matrix(3, 9, 4);
  const Tensor* bad[] = {&w_ok, &w_bad};
  EXPECT_THROW(
      fused_rmsnorm_matmul_bt(x, gain, 1e-5f, bad, KernelTier::Reference),
      std::invalid_argument);
  const Tensor gain_bad = random_matrix(1, 7, 5);
  const Tensor* ok[] = {&w_ok};
  EXPECT_THROW(
      fused_rmsnorm_matmul_bt(x, gain_bad, 1e-5f, ok, KernelTier::Reference),
      std::invalid_argument);
}

}  // namespace
}  // namespace llmfi::tn
