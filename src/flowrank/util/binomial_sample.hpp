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
//  * n·p' <= 30 (p' = min(p, 1-p)): BINV — inversion by cumulative
//    comparison, X = min{k <= bound : u <= F(k)}, with F(k) summed left
//    to right from the pmf recurrence; one uniform per variate, O(n·p')
//    multiplies, and a fresh uniform past the restart bound
//    n·p' + 10·sqrt(n·p'·q' + 1);
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
/// inversion branch tabled per n and entered through a guide table.
///
/// The Monte-Carlo sweeps thin every flow of a bin at the same p, run
/// after run, and flow sizes repeat heavily under the paper's
/// heavy-tailed distributions. So for each n the inversion branch sees
/// (below a cache edge), the thinner computes the BINV walk's whole CDF
/// once: q^n, then pmf(k) = pmf(k-1)·((n-k+1)·p)/(k·q) and
/// F(k) = F(k-1) + pmf(k) up to the walk's restart bound, the very
/// doubles the one-shot walk computes in the same order. Beside it sits
/// a guide table (Chen & Asau 1974; Devroye 1986, §III.2): 2^b >= 4·length
/// equal slots of [0, 1), slot j holding min{k : F(k) >= j/2^b}. A draw
/// reads its slot from the uniform's top bits and searches forward from
/// there, mostly zero or one step, with no exp, log or division. The
/// forward search from the slot's entry stops where the search from 0
/// would, so the variate stream is IDENTICAL to
/// binomial_sample(n, p, engine): the same uniforms are drawn and
/// compared against the same doubles.
///
/// Not thread-safe (per-instance cache); give each worker its own.
class BinomialThinner {
 public:
  /// Throws std::invalid_argument unless p is in [0, 1].
  explicit BinomialThinner(double p);

  /// One draw of Bin(n, p): same distribution, same stream, less work.
  /// A tabled n is drawn inline; everything else calls out.
  [[nodiscard]] std::uint64_t operator()(std::uint64_t n, Engine& engine) {
    if (n < tables_.size() && tables_[n].length != 0) {
      const std::uint64_t k = guided_search(tables_[n], engine);
      return flip_ ? n - k : k;
    }
    return untabled(n, engine);
  }

  [[nodiscard]] double p() const noexcept { return p_; }

 private:
  /// Where one n's CDF and guide sit in cdf_ and guide_; length 0 = not
  /// yet built.
  struct CdfTable {
    std::uint32_t cdf = 0;     ///< F(0..length-1), then a 1.0 sentinel
    std::uint32_t guide = 0;   ///< 2^(53 - shift) guide slots
    std::uint16_t length = 0;  ///< entries of F: the walk's restart bound + 1
    std::uint8_t shift = 0;    ///< a uniform's 53 bits >> shift = its slot
  };

  /// Builds n's table (n below the cache edge) on its first use.
  CdfTable build_table(std::uint64_t n);

  /// A draw for n with no table yet: builds one, or walks untabled, or
  /// takes BTPE.
  std::uint64_t untabled(std::uint64_t n, Engine& engine);

  /// The BINV walk over one table, entered at the guide: the same uniforms
  /// against the same doubles as binv_walk, so the same variate. A guide
  /// slot's entry is the first k the search from 0 could stop at for any
  /// u in that slot, so starting there skips only comparisons that fail.
  /// F(length) is a 1.0 sentinel above every uniform, so stopping there
  /// is the walk's restart past its bound.
  std::uint64_t guided_search(const CdfTable& table, Engine& engine) const {
    const double* cdf = cdf_.data() + table.cdf;
    const std::uint16_t* guide = guide_.data() + table.guide;
    for (;;) {
      // The 53 bits binomial_sample's uniforms are built from.
      const std::uint64_t bits = engine() >> 11;
      const double u = static_cast<double>(bits) * 0x1.0p-53;
      std::size_t k = guide[bits >> table.shift];
      // The first step as arithmetic, not a branch: with four slots per
      // entry the loop below rarely runs, so its branch predicts well.
      k += u > cdf[k];
      while (u > cdf[k]) ++k;
      if (k < table.length) return k;
    }
  }

  double p_;
  double pp_;     ///< min(p, 1-p)
  double log_q_;  ///< ln(1 - pp_), shared by every table
  bool flip_;     ///< p > 1/2: sample at pp_ and return n - k
  /// Tables indexed by n, grown lazily up to the cache edge.
  std::vector<CdfTable> tables_;
  /// Every built table's F(0..floor(bound)) and sentinel, back to back.
  std::vector<double> cdf_;
  /// Every built table's guide slots, back to back.
  std::vector<std::uint16_t> guide_;
};

}  // namespace flowrank::util
