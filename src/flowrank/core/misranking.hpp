// The paper's basic model (Sec. 3): probability of misranking two flows of
// known sizes under Bernoulli packet sampling, plus the Gaussian
// approximation (Sec. 4) that makes the general models tractable.
#pragma once

#include <cstdint>
#include <span>

#include "flowrank/numeric/special.hpp"

namespace flowrank::core {

/// Exact misranking probability, Eq. (1):
///   Pm(S1,S2) = P{s1 >= s2}  for S1 < S2,  s_k ~ Bin(S_k, p).
/// For S1 == S2 the paper's convention applies:
///   Pm = P{s1 != s2 or s1 = s2 = 0} = 1 - sum_{i>=1} b_p(i,S)^2.
/// Symmetric in (S1, S2). Cost O(min(S1,S2)) binomial-cdf evaluations.
/// Throws std::invalid_argument unless S1,S2 >= 1 and p in [0,1].
[[nodiscard]] double misranking_exact(std::int64_t s1, std::int64_t s2, double p);

/// Gaussian approximation, Eq. (2):
///   Pm(S1,S2) = (1/2) erfc( |S2-S1| / sqrt(2 (1/p - 1)(S1+S2)) ),
/// computed as (1/2) erfc(c r) with the pair's spread
/// c = gaussian_spread(S1, S2), which does not depend on p, and the
/// rate factor r = gaussian_rate_factor(p), which does not depend on the
/// pair. A caller that keeps c can evaluate the pair at many rates for
/// one product and one erfc each, bit for bit this function.
/// Continuous in the sizes; valid when p*max(S1,S2) is at least a few
/// packets. At p == 1 (r infinite) returns 0 for distinct sizes (sampling
/// is lossless) and 1/2 for equal ones. Exactly symmetric in (S1, S2).
[[nodiscard]] double misranking_gaussian(double s1, double s2, double p);

/// c = |S2-S1| / sqrt(2 (S1+S2)), the p-free factor of Eq. (2)'s erfc
/// argument. Exactly symmetric; requires S1, S2 > 0 (unchecked).
[[nodiscard]] double gaussian_spread(double s1, double s2);

/// sizes[i] = gaussian_spread(x, sizes[i]) in place, bit for bit, in one
/// loop the compiler vectorizes, on the dispatched instruction set
/// (numeric::Isa): the spreads of one reference size x against a batch
/// of companion sizes.
void gaussian_spreads(double x, std::span<double> sizes);

/// Test-only entry point: the spread loop on one chosen clone. Throws
/// std::invalid_argument unless numeric::isa_supported(isa).
void gaussian_spreads(numeric::Isa isa, double x, std::span<double> sizes);

/// r = sqrt(p / (1-p)), the pair-free factor of Eq. (2)'s erfc argument.
/// Requires 0 < p < 1 (unchecked; p == 1 gives +inf).
[[nodiscard]] double gaussian_rate_factor(double p);

/// Absolute error |exact - gaussian| on integer sizes (Fig. 3).
[[nodiscard]] double misranking_abs_error(std::int64_t s1, std::int64_t s2, double p);

/// Hybrid pairwise misranking probability (library extension, not in the
/// paper): uses the Gaussian form where it is accurate (expected sampled
/// size of the smaller flow >= ~10) and a semi-exact conditional sum
/// otherwise. Rationale: for pairs (huge flow, tiny flow) at low p the
/// Gaussian left tail overestimates P{s_big <= s_small} by orders of
/// magnitude — summed over the ~N tiny companions this inflates the
/// ranking metric at Internet scale (see EXPERIMENTS.md, "Gaussian tail
/// bias"). Continuous sizes; accepts s1, s2 in either order.
[[nodiscard]] double misranking_hybrid(double s1, double s2, double p);

/// Minimum achievable misranking probability for a flow of size S: compare
/// against a 1-packet flow (Sec. 3.1): (1-p)^{S-1} (1 - p + p^2 S).
[[nodiscard]] double misranking_vs_one_packet(std::int64_t s, double p);

}  // namespace flowrank::core
