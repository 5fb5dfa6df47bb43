// Portable, fast binomial sampling.
//
// std::binomial_distribution has two problems on the Monte-Carlo hot
// paths. It is slow: every construction recomputes log-gamma setup
// terms, and libstdc++'s small-mean branch draws O(n·p) geometric
// waiting times per variate. And it is *implementation-defined*: the
// standard fixes only the distribution, not the algorithm, so the same
// seed produces different streams under libstdc++ and libc++ — which
// silently breaks "deterministic" golden figure data across toolchains.
//
// binomial_sample() replaces it with the two classic algorithms whose
// variate streams are fully specified by this file alone:
//  * n·p' <= 30 (p' = min(p, 1-p)): BINV — inversion by the pmf
//    recurrence, one uniform per variate, O(n·p') multiplies;
//  * n·p' > 30: BTPE (Kachitvichyanukul & Schmeiser 1988) — the
//    triangle/parallelogram/exponential-tails squeeze-accept method,
//    ~1.1 uniform pairs per variate independent of n.
// Uniforms are built directly from engine() output bits (53-bit
// mantissa), so the stream depends only on util::Engine (mt19937_64,
// itself bit-portable) — no standard-library distribution is involved.
#pragma once

#include <cstdint>
#include <vector>

#include "flowrank/util/rng.hpp"

namespace flowrank::util {

/// One draw of Bin(n, p). The algorithm — and therefore the stream — is
/// fixed by this file across standard libraries; the only residual
/// platform dependence is sub-ulp libm exp/log rounding, which matters
/// only when an accept decision lands within one ulp of its threshold
/// (astronomically rarer than the wholesale algorithm differences of
/// std::binomial_distribution). Throws std::invalid_argument unless p is
/// in [0, 1]. n = 0, p = 0 and p = 1 short-circuit without consuming
/// randomness (matching sampler::thin_count's contract).
[[nodiscard]] std::uint64_t binomial_sample(std::uint64_t n, double p,
                                            Engine& engine);

/// The same stream drawn from a LazyEngine (equal to the Engine it stands
/// in for), for callers that seed one engine per few draws.
[[nodiscard]] std::uint64_t binomial_sample(std::uint64_t n, double p,
                                            LazyEngine& engine);

/// The n·p' threshold between the inversion and squeeze-accept branches
/// (exposed so tests can straddle it exactly).
inline constexpr double kBinomialInversionMaxMean = 30.0;

/// Repeated thinning at one fixed rate: binomial_sample with the
/// per-(n, p) setup memoized.
///
/// The Monte-Carlo sweeps thin every flow of a bin at the same p, run
/// after run, and flow sizes repeat heavily under the paper's
/// heavy-tailed distributions — so the inversion branch's exp/log setup
/// (the dominant cost for small flows) is cached per n. The variate
/// stream is IDENTICAL to binomial_sample(n, p, engine): memoization
/// reuses setup constants, never changes which uniforms are drawn, and
/// the cached values are the very doubles the one-shot path computes.
///
/// Not thread-safe (per-instance cache); give each worker its own.
class BinomialThinner {
 public:
  /// Throws std::invalid_argument unless p is in [0, 1].
  explicit BinomialThinner(double p);

  /// One draw of Bin(n, p): same distribution, same stream, less setup.
  [[nodiscard]] std::uint64_t operator()(std::uint64_t n, Engine& engine);

  [[nodiscard]] double p() const noexcept { return p_; }

 private:
  struct InversionSetup {
    double qn = -1.0;     ///< q^n (pmf at 0); -1 = not yet computed
    double bound = 0.0;   ///< restart bound of the BINV walk
  };

  double p_;
  double pp_;     ///< min(p, 1-p)
  double log_q_;  ///< ln(1 - pp_), shared by every cached setup
  bool flip_;     ///< p > 1/2: sample at pp_ and return n - k
  /// Inversion-branch setups indexed by n, grown lazily up to kCacheMax.
  std::vector<InversionSetup> cache_;
};

}  // namespace flowrank::util
