// Special functions used throughout the analytic models.
//
// Everything here is numerically stable for the regimes the paper needs:
// binomial coefficients with N up to several million flows, tail
// probabilities down to ~1e-300, and Normal tail integrals.
#pragma once

#include <cstdint>
#include <span>

namespace flowrank::numeric {

/// ln Γ(x) for x > 0 (reentrant lgamma_r under the hood — std::lgamma
/// writes the global `signgam`, racing across pool workers).
[[nodiscard]] double log_gamma(double x);

/// ln n! with a cached table for small n and lgamma for large n.
[[nodiscard]] double log_factorial(std::int64_t n);

/// ln C(n, k). Returns -inf when k < 0 or k > n.
[[nodiscard]] double log_choose(std::int64_t n, std::int64_t k);

/// log(exp(a) + exp(b)) without overflow.
[[nodiscard]] double log_sum_exp(double a, double b);

/// log(1 - exp(x)) for x <= 0, accurate near both ends.
[[nodiscard]] double log1m_exp(double x);

/// Standard Normal CDF Φ(x) via erfc (absolute accuracy ~1e-15).
[[nodiscard]] double normal_cdf(double x);

/// Standard Normal survival function 1 - Φ(x), accurate for large x.
[[nodiscard]] double normal_sf(double x);

/// Complementary error function, computed in the repo so that results
/// do not depend on the platform libm: Cody's rational Chebyshev forms
/// ("Rational Chebyshev approximations for the error function", Math.
/// Comp. 1969) on |x| <= 0.46875, |x| <= 4 and |x| below 26.55, where
/// erfc(x) drops under DBL_MIN; beyond, 0 (or 2 for negative x). The
/// exp(-x^2) factor comes from an in-repo exp of an exactly split x^2.
/// Plain double arithmetic, no FMA: the same bits under every
/// IEEE-conforming compiler. Within 8 ulp of glibc's erfc wherever that
/// is at least DBL_MIN.
[[nodiscard]] double erfc(double x);

/// out[i] = erfc(c[i] * r), bit for bit the scalar erfc, in branch-free
/// runs of inputs that share one of erfc's regimes (a sorted input makes
/// a handful of runs, each a loop the compiler vectorizes). Throws
/// std::invalid_argument unless the spans have the same size.
void erfc_scaled(std::span<const double> c, double r, std::span<double> out);

}  // namespace flowrank::numeric
