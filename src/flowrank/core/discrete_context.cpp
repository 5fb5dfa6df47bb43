#include "flowrank/core/discrete_context.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "flowrank/core/misranking.hpp"
#include "flowrank/exec/task_pool.hpp"
#include "flowrank/numeric/binomial.hpp"

namespace flowrank::core {

namespace {

// Why this file is fast where the old inline evaluation took ~13 s: the
// historical kernel recomputed every Bin(small, p) pmf term with the
// loop-carried recurrence b *= (small-k)/(k+1) * odds *inside* the Eq. (1)
// sum, so the whole O(S^3/6) triple loop was serialized on one ~18-cycle
// divide-multiply dependency chain. Here each pmf row is materialized once
// (O(S^2/2) recurrence steps total) into a packed triangular scratch
// buffer, and Eq. (1) becomes a contiguous dot product of that row against
// the larger flow's cached cdf row. Eight consecutive `small` lanes share
// one pass over the cdf row with eight independent accumulators, so the
// hot loop is bound by floating-point add throughput instead of the
// recurrence latency. Every per-lane addition still happens in strictly
// ascending k order with the exact expressions of the old code, so the
// results are bit-identical — only *independent* lanes interleave.

/// One row of Bin(s, p) pmf values b_p(k, s), k = 0..s, and its nonzero
/// k-range. Where the k = 0 seed (1-p)^s is a normal double, this is the
/// seed and recurrence the pre-context code ran inline, so every stored
/// value is bit-identical to what the old incremental loops produced.
/// Once s*ln(1-p) < ~-708 that seed underflows: recurring from a zero (or
/// subnormal) seed would leave the whole row zero or grossly wrong. Such a
/// row is anchored at its mode with one log-space pmf and recurred in both
/// directions instead; entries below 2^-60 of the mode value are left
/// zero (they cannot move a double-precision sum, and multiplying them
/// would only drag the k-sums through subnormal arithmetic), and the
/// returned range lets the k-sums skip them.
std::pair<std::int64_t, std::int64_t> fill_pmf_row(double* row, std::int64_t s,
                                                   double p) {
  const double odds = p / (1.0 - p);
  double b = std::pow(1.0 - p, static_cast<double>(s));  // k = 0
  if (b >= std::numeric_limits<double>::min()) {
    for (std::int64_t k = 0; k <= s; ++k) {
      row[static_cast<std::size_t>(k)] = b;
      if (k < s) {
        b *= static_cast<double>(s - k) / static_cast<double>(k + 1) * odds;
      }
    }
    return {0, s};
  }
  std::fill(row, row + s + 1, 0.0);
  const std::int64_t mode = std::min<std::int64_t>(
      s, static_cast<std::int64_t>(std::floor(static_cast<double>(s + 1) * p)));
  const double peak = std::exp(numeric::binomial_log_pmf(mode, s, p));
  const double cutoff = std::ldexp(peak, -60);
  row[static_cast<std::size_t>(mode)] = peak;
  std::int64_t k_hi = mode;
  for (b = peak; k_hi < s; ++k_hi) {
    b *= static_cast<double>(s - k_hi) / static_cast<double>(k_hi + 1) * odds;
    if (b < cutoff) break;
    row[static_cast<std::size_t>(k_hi + 1)] = b;
  }
  const double inv_odds = (1.0 - p) / p;
  std::int64_t k_lo = mode;
  for (b = peak; k_lo > 0; --k_lo) {
    b *= static_cast<double>(k_lo) / static_cast<double>(s - k_lo + 1) * inv_odds;
    if (b < cutoff) break;
    row[static_cast<std::size_t>(k_lo - 1)] = b;
  }
  return {k_lo, k_hi};
}

/// Continues `acc` with row[k] * cdf[k] terms for k in [k_lo, k_hi]
/// (empty when k_lo > k_hi), one add per k in strictly ascending order —
/// accumulating into the caller's running sum, never a fresh one, so the
/// additions happen in exactly the order of the old single-accumulator
/// loop. The 8-lane kernel below uses this for its ragged prologue and
/// epilogue parts around the shared core.
void dot_in_order(double& acc, const double* row, const double* cdf,
                  std::int64_t k_lo, std::int64_t k_hi) {
  for (std::int64_t k = k_lo; k <= k_hi; ++k) {
    acc += row[static_cast<std::size_t>(k)] * cdf[static_cast<std::size_t>(k)];
  }
}

// --- Eq. (1) shared-core kernels --------------------------------------------
//
// The table build's hot loop is, per group of 8 consecutive `small` lanes
// and one (or two) `large` cdf columns, acc[m] += tg[k*8 + m] * c[k] for
// k ascending, where tg is the transposed lane block (tg[k*8 + m] =
// b_p(k, small_m)). Every lane owns one accumulator, so lanes are fully
// independent — which lets them sit in SIMD vector lanes: packed IEEE-754
// multiplies and adds (mulpd/addpd and their AVX forms) compute each lane
// exactly as the scalar instructions do, so every kernel below produces
// bit-identical accumulators and the kernel choice is a pure speed
// decision, resolved once per process by a CPU-feature probe.
// x86-64 always has the SSE2 pair path; the AVX2 path is used when the
// CPU supports it. The function-level target attribute keeps the rest of
// the build on the default ISA, and since FMA is deliberately NOT enabled
// the compiler cannot contract the multiply-add — the determinism
// contract's "no reassociation, no contraction" rule holds in every
// variant. The scalar form is the portable reference for other ISAs.

#if defined(__x86_64__) || defined(_M_X64)
#define FLOWRANK_DISCRETE_HAVE_X86 1
#include <immintrin.h>
#endif

[[maybe_unused]] void pm_core1_scalar(const double* tg, std::int64_t k0,
                                      std::int64_t k1, const double* c0,
                                      double* acc) {
  double a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
  double a4 = acc[4], a5 = acc[5], a6 = acc[6], a7 = acc[7];
  const double* tk = tg + static_cast<std::size_t>(k0) * 8;
  for (std::int64_t k = k0; k <= k1; ++k, tk += 8) {
    const double ck = c0[static_cast<std::size_t>(k)];
    a0 += tk[0] * ck;
    a1 += tk[1] * ck;
    a2 += tk[2] * ck;
    a3 += tk[3] * ck;
    a4 += tk[4] * ck;
    a5 += tk[5] * ck;
    a6 += tk[6] * ck;
    a7 += tk[7] * ck;
  }
  acc[0] = a0;
  acc[1] = a1;
  acc[2] = a2;
  acc[3] = a3;
  acc[4] = a4;
  acc[5] = a5;
  acc[6] = a6;
  acc[7] = a7;
}

[[maybe_unused]] void pm_core2_scalar(const double* tg, std::int64_t k0,
                                      std::int64_t k1, const double* c0,
                                      const double* c1, double* acc_a,
                                      double* acc_b) {
  pm_core1_scalar(tg, k0, k1, c0, acc_a);
  pm_core1_scalar(tg, k0, k1, c1, acc_b);
}

#if defined(FLOWRANK_DISCRETE_HAVE_X86)

void pm_core1_sse2(const double* tg, std::int64_t k0, std::int64_t k1,
                   const double* c0, double* acc) {
  __m128d a01 = _mm_loadu_pd(acc);
  __m128d a23 = _mm_loadu_pd(acc + 2);
  __m128d a45 = _mm_loadu_pd(acc + 4);
  __m128d a67 = _mm_loadu_pd(acc + 6);
  const double* tk = tg + static_cast<std::size_t>(k0) * 8;
  for (std::int64_t k = k0; k <= k1; ++k, tk += 8) {
    const __m128d ck = _mm_set1_pd(c0[static_cast<std::size_t>(k)]);
    a01 = _mm_add_pd(a01, _mm_mul_pd(_mm_loadu_pd(tk), ck));
    a23 = _mm_add_pd(a23, _mm_mul_pd(_mm_loadu_pd(tk + 2), ck));
    a45 = _mm_add_pd(a45, _mm_mul_pd(_mm_loadu_pd(tk + 4), ck));
    a67 = _mm_add_pd(a67, _mm_mul_pd(_mm_loadu_pd(tk + 6), ck));
  }
  _mm_storeu_pd(acc, a01);
  _mm_storeu_pd(acc + 2, a23);
  _mm_storeu_pd(acc + 4, a45);
  _mm_storeu_pd(acc + 6, a67);
}

void pm_core2_sse2(const double* tg, std::int64_t k0, std::int64_t k1,
                   const double* c0, const double* c1, double* acc_a,
                   double* acc_b) {
  __m128d a01 = _mm_loadu_pd(acc_a);
  __m128d a23 = _mm_loadu_pd(acc_a + 2);
  __m128d a45 = _mm_loadu_pd(acc_a + 4);
  __m128d a67 = _mm_loadu_pd(acc_a + 6);
  __m128d b01 = _mm_loadu_pd(acc_b);
  __m128d b23 = _mm_loadu_pd(acc_b + 2);
  __m128d b45 = _mm_loadu_pd(acc_b + 4);
  __m128d b67 = _mm_loadu_pd(acc_b + 6);
  const double* tk = tg + static_cast<std::size_t>(k0) * 8;
  for (std::int64_t k = k0; k <= k1; ++k, tk += 8) {
    const __m128d ck0 = _mm_set1_pd(c0[static_cast<std::size_t>(k)]);
    const __m128d ck1 = _mm_set1_pd(c1[static_cast<std::size_t>(k)]);
    const __m128d t01 = _mm_loadu_pd(tk);
    const __m128d t23 = _mm_loadu_pd(tk + 2);
    const __m128d t45 = _mm_loadu_pd(tk + 4);
    const __m128d t67 = _mm_loadu_pd(tk + 6);
    a01 = _mm_add_pd(a01, _mm_mul_pd(t01, ck0));
    a23 = _mm_add_pd(a23, _mm_mul_pd(t23, ck0));
    a45 = _mm_add_pd(a45, _mm_mul_pd(t45, ck0));
    a67 = _mm_add_pd(a67, _mm_mul_pd(t67, ck0));
    b01 = _mm_add_pd(b01, _mm_mul_pd(t01, ck1));
    b23 = _mm_add_pd(b23, _mm_mul_pd(t23, ck1));
    b45 = _mm_add_pd(b45, _mm_mul_pd(t45, ck1));
    b67 = _mm_add_pd(b67, _mm_mul_pd(t67, ck1));
  }
  _mm_storeu_pd(acc_a, a01);
  _mm_storeu_pd(acc_a + 2, a23);
  _mm_storeu_pd(acc_a + 4, a45);
  _mm_storeu_pd(acc_a + 6, a67);
  _mm_storeu_pd(acc_b, b01);
  _mm_storeu_pd(acc_b + 2, b23);
  _mm_storeu_pd(acc_b + 4, b45);
  _mm_storeu_pd(acc_b + 6, b67);
}

__attribute__((target("avx2"))) void pm_core1_avx2(const double* tg,
                                                   std::int64_t k0,
                                                   std::int64_t k1,
                                                   const double* c0,
                                                   double* acc) {
  __m256d a03 = _mm256_loadu_pd(acc);
  __m256d a47 = _mm256_loadu_pd(acc + 4);
  const double* tk = tg + static_cast<std::size_t>(k0) * 8;
  for (std::int64_t k = k0; k <= k1; ++k, tk += 8) {
    const __m256d ck = _mm256_broadcast_sd(c0 + k);
    a03 = _mm256_add_pd(a03, _mm256_mul_pd(_mm256_loadu_pd(tk), ck));
    a47 = _mm256_add_pd(a47, _mm256_mul_pd(_mm256_loadu_pd(tk + 4), ck));
  }
  _mm256_storeu_pd(acc, a03);
  _mm256_storeu_pd(acc + 4, a47);
}

__attribute__((target("avx2"))) void pm_core2_avx2(
    const double* tg, std::int64_t k0, std::int64_t k1, const double* c0,
    const double* c1, double* acc_a, double* acc_b) {
  __m256d a03 = _mm256_loadu_pd(acc_a);
  __m256d a47 = _mm256_loadu_pd(acc_a + 4);
  __m256d b03 = _mm256_loadu_pd(acc_b);
  __m256d b47 = _mm256_loadu_pd(acc_b + 4);
  const double* tk = tg + static_cast<std::size_t>(k0) * 8;
  for (std::int64_t k = k0; k <= k1; ++k, tk += 8) {
    const __m256d t03 = _mm256_loadu_pd(tk);
    const __m256d t47 = _mm256_loadu_pd(tk + 4);
    const __m256d ck0 = _mm256_broadcast_sd(c0 + k);
    const __m256d ck1 = _mm256_broadcast_sd(c1 + k);
    a03 = _mm256_add_pd(a03, _mm256_mul_pd(t03, ck0));
    a47 = _mm256_add_pd(a47, _mm256_mul_pd(t47, ck0));
    b03 = _mm256_add_pd(b03, _mm256_mul_pd(t03, ck1));
    b47 = _mm256_add_pd(b47, _mm256_mul_pd(t47, ck1));
  }
  _mm256_storeu_pd(acc_a, a03);
  _mm256_storeu_pd(acc_a + 4, a47);
  _mm256_storeu_pd(acc_b, b03);
  _mm256_storeu_pd(acc_b + 4, b47);
}

// AVX-512F covers the whole 8-lane group with a single accumulator
// register. Unlike AVX2, the AVX-512F ISA *does* include fused
// multiply-add encodings, so contraction of the separate mul/add
// intrinsics below must be forbidden explicitly to keep each lane's
// arithmetic bit-identical to the scalar path.
__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
pm_core1_avx512(const double* tg, std::int64_t k0, std::int64_t k1,
                const double* c0, double* acc) {
  __m512d a = _mm512_loadu_pd(acc);
  const double* tk = tg + static_cast<std::size_t>(k0) * 8;
  for (std::int64_t k = k0; k <= k1; ++k, tk += 8) {
    const __m512d ck = _mm512_set1_pd(c0[k]);
    a = _mm512_add_pd(a, _mm512_mul_pd(_mm512_loadu_pd(tk), ck));
  }
  _mm512_storeu_pd(acc, a);
}

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
pm_core2_avx512(const double* tg, std::int64_t k0, std::int64_t k1,
                const double* c0, const double* c1, double* acc_a,
                double* acc_b) {
  __m512d a = _mm512_loadu_pd(acc_a);
  __m512d b = _mm512_loadu_pd(acc_b);
  const double* tk = tg + static_cast<std::size_t>(k0) * 8;
  for (std::int64_t k = k0; k <= k1; ++k, tk += 8) {
    const __m512d t = _mm512_loadu_pd(tk);
    b = _mm512_add_pd(b, _mm512_mul_pd(t, _mm512_set1_pd(c1[k])));
    a = _mm512_add_pd(a, _mm512_mul_pd(t, _mm512_set1_pd(c0[k])));
  }
  _mm512_storeu_pd(acc_a, a);
  _mm512_storeu_pd(acc_b, b);
}

#endif  // FLOWRANK_DISCRETE_HAVE_X86

using Core1Fn = void (*)(const double*, std::int64_t, std::int64_t,
                         const double*, double*);
using Core2Fn = void (*)(const double*, std::int64_t, std::int64_t,
                         const double*, const double*, double*, double*);

struct CoreKernels {
  Core1Fn one;
  Core2Fn two;
};

const CoreKernels& core_kernels() {
  static const CoreKernels kernels = [] {
#if defined(FLOWRANK_DISCRETE_HAVE_X86)
    if (__builtin_cpu_supports("avx512f")) {
      return CoreKernels{pm_core1_avx512, pm_core2_avx512};
    }
    if (__builtin_cpu_supports("avx2")) {
      return CoreKernels{pm_core1_avx2, pm_core2_avx2};
    }
    return CoreKernels{pm_core1_sse2, pm_core2_sse2};
#else
    return CoreKernels{pm_core1_scalar, pm_core2_scalar};
#endif
  }();
  return kernels;
}

/// Eq. (1) for up to 8 consecutive `small` lanes against one cdf row `c`:
/// out[m] = clamp(sum_k lane_row[m][k] * c[k]) over lane m's k range.
/// `tg` is a transposed lane-major copy of the 8 rows (tg[k*8 + m] =
/// lane_row[m][k], exact bit copies), so the shared core reads one
/// contiguous cache line per k — a form the auto-vectorizer handles with
/// baseline SSE2 — instead of touching eight distinct rows. Lane k-ranges
/// differ (by the lane's own upper bound `small`, and by per-size windows
/// when gated), so each lane runs a scalar prologue [k_lo, K0) and
/// epilogue (K1, k_hi] around the shared [K0, K1] core with 8 independent
/// accumulators — every lane's adds stay in ascending k order.
void pm_lane_block(const double* tg, const double* const* lane_row,
                   const std::int64_t* klo, const std::int64_t* khi,
                   std::int64_t lanes, const double* c, double* out) {
  const std::int64_t K0 = *std::max_element(klo, klo + lanes);
  const std::int64_t K1 = *std::min_element(khi, khi + lanes);
  if (lanes < 8 || K0 > K1) {
    // Ragged tail block, or no common core (degenerate windows): plain
    // scalar lanes.
    for (std::int64_t m = 0; m < lanes; ++m) {
      double acc = 0.0;
      dot_in_order(acc, lane_row[m], c, klo[m], khi[m]);
      out[m] = acc < 1.0 ? acc : 1.0;
    }
    return;
  }
  // Ragged per-lane prologue [klo, K0) and epilogue (K1, khi] run scalar
  // around the dispatched [K0, K1] core; the accumulator array is carried
  // through by exact value, so each lane is still one running sum in
  // strictly ascending k order.
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  for (std::int64_t m = 0; m < 8; ++m) {
    dot_in_order(acc[m], lane_row[m], c, klo[m], K0 - 1);
  }
  core_kernels().one(tg, K0, K1, c, acc);
  for (std::int64_t m = 0; m < 8; ++m) {
    dot_in_order(acc[m], lane_row[m], c, K1 + 1, khi[m]);
    out[m] = acc[m] < 1.0 ? acc[m] : 1.0;
  }
}

/// The paired-column variant: the same 8 lanes against TWO cdf rows
/// c0/c1 (consecutive `large` values) in one pass, GEMM-style register
/// blocking. Each transposed 64-byte lane line now feeds 16 multiply-adds
/// instead of 8, halving load pressure per term — the dominant cost once
/// rows are L2-resident. The two output cells per lane use disjoint
/// accumulators, and every lane still sums in strictly ascending k order
/// with the canonical expressions, so results stay bit-identical; only
/// which independent cells proceed in lockstep changes. Callers must
/// guarantee all 8 lanes lie strictly below BOTH larges.
void pm_lane_block2(const double* tg, const double* const* lane_row,
                    const std::int64_t* klo, const std::int64_t* khi,
                    const double* c0, const double* c1, double* out0,
                    double* out1) {
  const std::int64_t K0 = *std::max_element(klo, klo + 8);
  const std::int64_t K1 = *std::min_element(khi, khi + 8);
  if (K0 > K1) {  // degenerate windows: no shared core
    for (std::int64_t m = 0; m < 8; ++m) {
      double acc0 = 0.0, acc1 = 0.0;
      dot_in_order(acc0, lane_row[m], c0, klo[m], khi[m]);
      dot_in_order(acc1, lane_row[m], c1, klo[m], khi[m]);
      out0[m] = acc0 < 1.0 ? acc0 : 1.0;
      out1[m] = acc1 < 1.0 ? acc1 : 1.0;
    }
    return;
  }
  double acc_a[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  double acc_b[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  for (std::int64_t m = 0; m < 8; ++m) {
    dot_in_order(acc_a[m], lane_row[m], c0, klo[m], K0 - 1);
    dot_in_order(acc_b[m], lane_row[m], c1, klo[m], K0 - 1);
  }
  core_kernels().two(tg, K0, K1, c0, c1, acc_a, acc_b);
  for (std::int64_t m = 0; m < 8; ++m) {
    dot_in_order(acc_a[m], lane_row[m], c0, K1 + 1, khi[m]);
    dot_in_order(acc_b[m], lane_row[m], c1, K1 + 1, khi[m]);
    out0[m] = acc_a[m] < 1.0 ? acc_a[m] : 1.0;
    out1[m] = acc_b[m] < 1.0 ? acc_b[m] : 1.0;
  }
}

}  // namespace

DiscreteModelContext::DiscreteModelContext(const DiscreteContextConfig& config) {
  if (!config.size_pmf) {
    throw std::invalid_argument("discrete model: size_pmf is required");
  }
  if (!(config.p > 0.0 && config.p < 1.0)) {
    throw std::invalid_argument("discrete model: requires p in (0,1)");
  }
  if (!(config.window_tolerance >= 0.0 && config.window_tolerance < 0.1)) {
    throw std::invalid_argument(
        "discrete model: window tolerance is a skipped pmf mass in [0, 0.1), "
        "not a time window");
  }
  const auto& pmf_src = *config.size_pmf;
  const std::int64_t lo = pmf_src.min_packets();
  const std::int64_t hi = config.max_size;
  if (hi <= lo) throw std::invalid_argument("discrete model: max_size too small");
  const double tail = pmf_src.ccdf_geq(hi + 1);
  if (tail > config.tail_tolerance) {
    throw std::invalid_argument(
        "discrete model: pmf tail above max_size exceeds tolerance; "
        "increase max_size or lighten the tail");
  }

  p_ = config.p;
  window_tolerance_ = config.window_tolerance;
  lo_ = lo;
  hi_ = hi;
  const auto count = static_cast<std::size_t>(hi - lo + 1);

  pmf_.resize(count);
  ccdf_.resize(count);
  for (std::int64_t i = lo; i <= hi; ++i) {
    pmf_[static_cast<std::size_t>(i - lo)] = pmf_src.pmf(i);
    ccdf_[static_cast<std::size_t>(i - lo)] = pmf_src.ccdf_geq(i);
  }

  const std::size_t threads = exec::TaskPool::resolve_parallelism(config.num_threads);
  auto& pool = exec::TaskPool::shared();
  if (threads > 1) pool.ensure_workers(threads - 1);

  // Build scratch (freed before the constructor returns; the context
  // itself keeps only O(S) state):
  //  * rows    — packed triangular Bin(s, p) pmf rows, row s = b_p(0..s, s),
  //  * pm      — packed triangular Pm(small, large) for lo <= small < large,
  //              row `large` indexed by small - lo.
  std::vector<std::size_t> row_off(count);
  std::vector<std::size_t> pm_off(count);
  std::size_t row_total = 0, pm_total = 0;
  for (std::size_t r = 0; r < count; ++r) {
    row_off[r] = row_total;
    pm_off[r] = pm_total;
    row_total += static_cast<std::size_t>(lo) + r + 1;
    pm_total += r;
  }
  std::vector<double> pm(pm_total);
  std::vector<double> pm_equal(count);

  std::vector<double> rows;
  // Per-size k-sum windows: each row's nonzero range (the full range
  // unless the row's seed underflows), trimmed further when the gate is on.
  std::vector<std::int64_t> win_lo(count, 0), win_hi(count);
  if (!config.gaussian_pairwise) {
    rows.resize(row_total);
    pool.parallel_for(
        count,
        [&](std::size_t r) {
          const std::int64_t s = lo + static_cast<std::int64_t>(r);
          auto [k_lo, k_hi] = fill_pmf_row(rows.data() + row_off[r], s, p_);
          if (window_tolerance_ > 0.0) {
            // Central window of Bin(s, p): trim each tail while the
            // cumulative trimmed mass stays within tolerance/2. The
            // window is never empty (the k_lo scan stops before s).
            const double* row = rows.data() + row_off[r];
            const double half = 0.5 * window_tolerance_;
            double cut = 0.0;
            while (k_lo < s && cut + row[k_lo] <= half) {
              cut += row[k_lo];
              ++k_lo;
            }
            cut = 0.0;
            while (k_hi > k_lo && cut + row[k_hi] <= half) {
              cut += row[k_hi];
              --k_hi;
            }
          }
          win_lo[r] = k_lo;
          win_hi[r] = k_hi;
        },
        threads);
  }

  if (config.gaussian_pairwise) {
    // Gaussian flavor: no pmf rows or cdf needed; rows are independent.
    pool.parallel_for(
        count,
        [&](std::size_t r) {
          const std::int64_t large = lo + static_cast<std::int64_t>(r);
          double* out = pm.data() + pm_off[r];
          pm_equal[r] = misranking_gaussian(static_cast<double>(large),
                                            static_cast<double>(large), p_);
          for (std::int64_t small = lo; small < large; ++small) {
            out[static_cast<std::size_t>(small - lo)] = misranking_gaussian(
                static_cast<double>(small), static_cast<double>(large), p_);
          }
        },
        threads);
  } else {
    // cdf rows of every larger flow, materialized once (same packed
    // layout as `rows`): running prefix sums of the pmf row, clamped at
    // 1 — same values, same order as the old inline loop. The index
    // `large` entry is never read (small < large); it is set to 1.0 as
    // the old code did. The equal-size diagonal (1 - sum_{i>=1}
    // b_p(i, large)^2, ascending i exactly as before) rides along; it is
    // not an Eq. (1) k-sum, so the window gate never touches it.
    std::vector<double> cdf_rows(row_total);
    pool.parallel_for(
        count,
        [&](std::size_t r) {
          const std::int64_t large = lo + static_cast<std::int64_t>(r);
          const double* lrow = rows.data() + row_off[r];
          double* crow = cdf_rows.data() + row_off[r];
          double agree = 0.0;
          for (std::int64_t i = 1; i <= large; ++i) {
            const double b = lrow[static_cast<std::size_t>(i)];
            agree += b * b;
          }
          pm_equal[r] = 1.0 - agree;
          double running = 0.0;
          for (std::int64_t k = 0; k < large; ++k) {
            running += lrow[static_cast<std::size_t>(k)];
            crow[static_cast<std::size_t>(k)] = running < 1.0 ? running : 1.0;
          }
          crow[static_cast<std::size_t>(large)] = 1.0;
        },
        threads);

    // Eq. (1) over the triangle, tiled for cache locality: a naive
    // per-`large` sweep re-streams every smaller pmf row from DRAM
    // (O(S^3/6) * 8 bytes ~ tens of GB at S = 3000, which measured
    // memory-bound). Instead each task owns a tile of kTilePmRows
    // consecutive `small` rows — small enough to stay resident in L2 —
    // and streams every cdf row through it once, so DRAM traffic drops
    // to O(S^2 * S / kTilePmRows) bytes. Tiles write disjoint column
    // ranges of each pm row; every (small, large) cell is still computed
    // by exactly one task with the sequential per-lane arithmetic of
    // pm_lane_block.
    constexpr std::int64_t kTilePmRows = 32;  // 32 rows * S * 8B fits L2
    const auto small_count = static_cast<std::int64_t>(count) - 1;  // lo..hi-1
    const auto tiles = static_cast<std::size_t>(
        (small_count + kTilePmRows - 1) / kTilePmRows);
    pool.parallel_for(
        tiles,
        [&](std::size_t tile) {
          const std::int64_t s0 =
              lo + static_cast<std::int64_t>(tile) * kTilePmRows;
          const std::int64_t s_end = std::min<std::int64_t>(s0 + kTilePmRows, hi);
          // Transposed lane-major copies of the tile's pmf rows, built
          // once per tile and reused for every `large`: chunk g holds
          // tg[k*8 + m] = b_p(k, g0 + m). Exact bit copies, so the
          // lane-block arithmetic is unchanged; lanes past a row's end
          // stay zero and are never read (the shared core stops at the
          // group's min k_hi).
          const std::int64_t n_groups = (s_end - s0 + 7) / 8;
          std::vector<std::size_t> tg_off(static_cast<std::size_t>(n_groups));
          std::vector<std::int64_t> tg_kmax(static_cast<std::size_t>(n_groups));
          std::size_t tg_total = 0;
          for (std::int64_t g = 0; g < n_groups; ++g) {
            const std::int64_t g0 = s0 + g * 8;
            const std::int64_t gl = std::min<std::int64_t>(8, s_end - g0);
            std::int64_t kmax = 0;
            for (std::int64_t m = 0; m < gl; ++m) {
              kmax = std::max(kmax, win_hi[static_cast<std::size_t>(g0 - lo + m)]);
            }
            tg_off[static_cast<std::size_t>(g)] = tg_total;
            tg_kmax[static_cast<std::size_t>(g)] = kmax;
            tg_total += static_cast<std::size_t>(kmax + 1) * 8;
          }
          std::vector<double> tg_buf(tg_total, 0.0);
          for (std::int64_t g = 0; g < n_groups; ++g) {
            const std::int64_t g0 = s0 + g * 8;
            const std::int64_t gl = std::min<std::int64_t>(8, s_end - g0);
            double* tg = tg_buf.data() + tg_off[static_cast<std::size_t>(g)];
            for (std::int64_t m = 0; m < gl; ++m) {
              const auto sr = static_cast<std::size_t>(g0 - lo + m);
              const double* row = rows.data() + row_off[sr];
              const std::int64_t k_end = std::min<std::int64_t>(
                  g0 + m, tg_kmax[static_cast<std::size_t>(g)]);
              for (std::int64_t k = 0; k <= k_end; ++k) {
                tg[static_cast<std::size_t>(k) * 8 +
                   static_cast<std::size_t>(m)] =
                    row[static_cast<std::size_t>(k)];
              }
            }
          }
          // Consecutive `large` columns are processed in pairs wherever
          // every lane of a group lies strictly below both — each lane
          // line then feeds both columns' accumulators (pm_lane_block2).
          // Boundary groups and an unpaired final column fall back to the
          // single-column kernel. Cells are mutually independent, so the
          // pairing changes only which of them proceed in lockstep.
          for (std::int64_t large = s0 + 1; large <= hi;) {
            const bool paired = large + 1 <= hi;
            const auto lr0 = static_cast<std::size_t>(large - lo);
            const double* c0 = cdf_rows.data() + row_off[lr0];
            double* out0 = pm.data() + pm_off[lr0];
            const double* c1 = nullptr;
            double* out1 = nullptr;
            if (paired) {
              c1 = cdf_rows.data() + row_off[lr0 + 1];
              out1 = pm.data() + pm_off[lr0 + 1];
            }
            const std::int64_t g_end0 = std::min(s_end, large);
            const std::int64_t g_end1 =
                paired ? std::min(s_end, large + 1) : g_end0;
            for (std::int64_t g0 = s0; g0 < g_end1; g0 += 8) {
              std::int64_t klo[8], khi[8];
              const double* lane_row[8];
              const std::int64_t lanes_here =
                  std::min<std::int64_t>(8, g_end1 - g0);
              for (std::int64_t m = 0; m < lanes_here; ++m) {
                const auto sr = static_cast<std::size_t>(g0 - lo + m);
                lane_row[m] = rows.data() + row_off[sr];
                klo[m] = win_lo[sr];
                khi[m] = win_hi[sr];
              }
              const double* tg =
                  tg_buf.data() + tg_off[static_cast<std::size_t>((g0 - s0) / 8)];
              double* const o0 = out0 + static_cast<std::size_t>(g0 - lo);
              if (paired && g0 + 8 <= g_end0) {
                pm_lane_block2(tg, lane_row, klo, khi, c0, c1, o0,
                               out1 + static_cast<std::size_t>(g0 - lo));
                continue;
              }
              if (g0 < g_end0) {
                pm_lane_block(tg, lane_row, klo, khi,
                              std::min<std::int64_t>(8, g_end0 - g0), c0, o0);
              }
              if (paired) {
                pm_lane_block(tg, lane_row, klo, khi, lanes_here, c1,
                              out1 + static_cast<std::size_t>(g0 - lo));
              }
            }
            large += paired ? 2 : 1;
          }
        },
        threads);
  }

  // Reduce the table to the Eq. (3) partial sums with the old code's
  // exact per-i summation order (ascending j throughout). Work is
  // blocked by i so the B_i column walks read each pm row once per
  // block, contiguously, instead of one strided cache miss per term.
  a_sum_.assign(count, 0.0);
  b_sum_.assign(count, 0.0);
  constexpr std::size_t kTileSums = 64;
  const std::size_t sum_tiles = (count + kTileSums - 1) / kTileSums;
  pool.parallel_for(
      sum_tiles,
      [&](std::size_t tile) {
        const std::size_t r0 = tile * kTileSums;
        const std::size_t r1 = std::min(r0 + kTileSums, count);
        for (std::size_t r = r0; r < r1; ++r) {
          const double* row = pm.data() + pm_off[r];
          double a_sum = 0.0;
          for (std::size_t j = 0; j < r; ++j) {
            a_sum += pmf_[j] * row[j];
          }
          a_sum_[r] = a_sum;
          b_sum_[r] = pmf_[r] * pm_equal[r];
        }
        // B_i tail sums, row-major: for fixed i the terms still arrive
        // in ascending j order (j is the outer loop), bit-identical to
        // the old per-i column walk.
        for (std::size_t j = r0 + 1; j < count; ++j) {
          const double* row = pm.data() + pm_off[j];
          const double pj = pmf_[j];
          const std::size_t i_end = std::min(j, r1);
          for (std::size_t i = r0; i < i_end; ++i) {
            b_sum_[i] += pj * row[i];
          }
        }
      },
      threads);
}

DiscreteModelResult DiscreteModelContext::evaluate(std::int64_t n,
                                                   std::int64_t t) const {
  if (t < 1 || t > n) {
    throw std::invalid_argument("discrete model: requires 1 <= t <= N");
  }
  // Eq. (3) after the Pt(i,t,N) cancellation:
  //   P̄mt = (N/t) sum_i p_i [ Pt(i,t,N-1) A_i + Pt(i,t-1,N-1) B_i ]
  // with binomials over N-2 trials inside Pt(.,.,N-1).
  const std::int64_t trials = n - 2;
  double pbar = 0.0;
  const std::size_t count = pmf_.size();
  for (std::size_t r = 0; r < count; ++r) {
    const double pi_mass = pmf_[r];
    if (pi_mass <= 0.0) continue;
    const double tail_prob = ccdf_[r];
    const double pt_t = numeric::binomial_cdf(t - 1, trials, tail_prob);
    const double pt_tm1 = numeric::binomial_cdf(t - 2, trials, tail_prob);
    pbar += pi_mass * (pt_t * a_sum_[r] + pt_tm1 * b_sum_[r]);
  }
  pbar *= static_cast<double>(n) / static_cast<double>(t);

  DiscreteModelResult result;
  result.mean_pair_misranking = pbar;
  result.metric = 0.5 * static_cast<double>(2 * n - t - 1) *
                  static_cast<double>(t) * pbar;
  return result;
}

}  // namespace flowrank::core
