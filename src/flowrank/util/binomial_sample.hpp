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
// mantissa), so the stream depends only on util::Engine (an in-repo
// mt19937_64, bit-portable by construction) — no standard-library
// distribution is involved.
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

/// The same algorithm over a CounterEngine's words, for callers that draw
/// a few variates per key.
[[nodiscard]] std::uint64_t binomial_sample(std::uint64_t n, double p,
                                            CounterEngine& engine);

/// The n·p' threshold between the inversion and squeeze-accept branches
/// (exposed so tests can straddle it exactly).
inline constexpr double kBinomialInversionMaxMean = 30.0;

/// Repeated thinning at one fixed rate: binomial_sample with the
/// inversion branch tabled per n.
///
/// The Monte-Carlo sweeps thin every flow of a bin at the same p, run
/// after run, and flow sizes repeat heavily under the paper's
/// heavy-tailed distributions. So for each n the inversion branch sees
/// (below a cache edge), the thinner computes the BINV walk's whole pmf
/// sequence once: q^n and then pmf(k) = pmf(k-1)·((n-k+1)·p)/(k·q) up to
/// the walk's restart bound, the very doubles the one-shot walk computes
/// in the same order. A draw is then a subtract/compare walk over that
/// table, with no exp, log or division. The variate stream is IDENTICAL
/// to binomial_sample(n, p, engine): the same uniforms are drawn and
/// compared against the same doubles.
///
/// Not thread-safe (per-instance cache); give each worker its own.
class BinomialThinner {
 public:
  /// Throws std::invalid_argument unless p is in [0, 1].
  explicit BinomialThinner(double p);

  /// One draw of Bin(n, p): same distribution, same stream, less work.
  [[nodiscard]] std::uint64_t operator()(std::uint64_t n, Engine& engine);

  [[nodiscard]] double p() const noexcept { return p_; }

 private:
  /// Where one n's pmf table sits in pmf_; length 0 = not yet built.
  struct PmfTable {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };

  /// Builds n's table (n below the cache edge) on its first use.
  PmfTable build_table(std::uint64_t n);

  double p_;
  double pp_;     ///< min(p, 1-p)
  double log_q_;  ///< ln(1 - pp_), shared by every table
  bool flip_;     ///< p > 1/2: sample at pp_ and return n - k
  /// Tables indexed by n, grown lazily up to the cache edge.
  std::vector<PmfTable> tables_;
  /// Every built table's pmf(0..floor(bound)), back to back.
  std::vector<double> pmf_;
};

}  // namespace flowrank::util
