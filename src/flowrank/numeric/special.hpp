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
/// a handful of runs, each a loop the compiler vectorizes), on the
/// dispatched instruction set (see Isa). Throws std::invalid_argument
/// unless the spans have the same size.
void erfc_scaled(std::span<const double> c, double r, std::span<double> out);

/// y^e for y in (0, 1] and e in (-2^969, 0], computed in the repo as
/// exp(e log y): fdlibm's log and exp kernels in plain double
/// arithmetic, no FMA, with log y carried as hi + lo and e log y formed
/// exactly, so the exp sees the product to well under an ulp. Within 1
/// ulp of glibc's pow for |e| <= 4 (the remaining error grows with
/// |e log y|: 3 ulp at e = -40), exactly 1 at y = 1, inf where y^e
/// overflows. The same bits under every IEEE-conforming compiler.
/// Throws std::domain_error outside the domain.
[[nodiscard]] double unit_power(double y, double e);

/// out[i] = scale * unit_power(y[i], e), bit for bit, in one loop the
/// compiler vectorizes, on the dispatched instruction set; out may be y
/// itself. Throws std::invalid_argument unless the spans have the same
/// size, std::domain_error (before any write) if e or some y[i] is
/// outside unit_power's domain.
void scaled_unit_powers(std::span<const double> y, double e, double scale,
                        std::span<double> out);

/// The instruction sets the batch kernels (erfc_scaled,
/// scaled_unit_powers, core::gaussian_spreads) are compiled for, each
/// from one source: baseline x86-64 and, on x86-64 under GCC or clang,
/// AVX2 (no FMA, no AVX-512). Both clones give the same bits; the
/// library picks AVX2 when the CPU has it, once, when it loads.
enum class Isa {
  kBaseline,
  kAvx2,
};

/// The instruction set the batch kernels run on in this process.
[[nodiscard]] Isa dispatched_isa() noexcept;

/// Whether this build and CPU can run `isa`'s clones.
[[nodiscard]] bool isa_supported(Isa isa) noexcept;

/// "baseline" or "avx2".
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// Test-only entry points: the batch kernels on one chosen clone, so
/// that a test can hold the clones to the same bits. Throw
/// std::invalid_argument unless isa_supported(isa); otherwise as above.
void erfc_scaled(Isa isa, std::span<const double> c, double r, std::span<double> out);
void scaled_unit_powers(Isa isa, std::span<const double> y, double e, double scale,
                        std::span<double> out);

}  // namespace flowrank::numeric
