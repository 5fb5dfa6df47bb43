#include "flowrank/core/misranking.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "flowrank/numeric/binomial.hpp"
#include "flowrank/numeric/special.hpp"

// AVX2 clone of the spread loop, as numeric/special.cpp builds its
// kernels.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLOWRANK_KERNELS_AVX2 1
#else
#define FLOWRANK_KERNELS_AVX2 0
#endif

namespace flowrank::core {

namespace {

/// gaussian_spread(x, size) in place, compiled once per instruction set
/// (see numeric::Isa): no FMA, and this file builds with
/// -ffp-contract=off, so both clones give the same bits.
inline void spreads(double x, double* sizes, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    sizes[i] = std::abs(sizes[i] - x) / std::sqrt(2.0 * (x + sizes[i]));
  }
}

[[gnu::flatten]] void spreads_baseline(double x, double* sizes, std::size_t n) {
  spreads(x, sizes, n);
}

#if FLOWRANK_KERNELS_AVX2
[[gnu::flatten, gnu::target("avx2")]] void spreads_avx2(double x, double* sizes,
                                                        std::size_t n) {
  spreads(x, sizes, n);
}
#endif

/// The spread loop on `isa`'s clone, which this CPU can run.
void spreads_on(numeric::Isa isa, double x, std::span<double> sizes) {
#if FLOWRANK_KERNELS_AVX2
  if (isa == numeric::Isa::kAvx2) return spreads_avx2(x, sizes.data(), sizes.size());
#endif
  spreads_baseline(x, sizes.data(), sizes.size());
}

void check_args(std::int64_t s1, std::int64_t s2, double p) {
  if (s1 < 1 || s2 < 1) {
    throw std::invalid_argument("misranking: flow sizes must be >= 1 packet");
  }
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("misranking: p in [0,1]");
  }
}
}  // namespace

double misranking_exact(std::int64_t s1, std::int64_t s2, double p) {
  check_args(s1, s2, p);
  if (p == 0.0) return 1.0;  // nothing sampled: both zero, misranked
  if (p == 1.0) return 0.0;  // lossless sampling ranks perfectly
  if (s1 == s2) {
    // 1 - P{s1 = s2 != 0} = 1 - sum_{i=1}^{S} b_p(i,S)^2.
    const auto sweep = numeric::BinomialSweep::shared(s1, p);
    double agree = 0.0;
    for (std::int64_t i = std::max<std::int64_t>(1, sweep->lo()); i <= sweep->hi();
         ++i) {
      const double b = sweep->pmf(i);
      agree += b * b;
    }
    return 1.0 - agree;
  }
  const std::int64_t small = std::min(s1, s2);
  const std::int64_t big = std::max(s1, s2);
  // P{s_small >= s_big} = sum_i b_p(i, small) * P{s_big <= i}, with both
  // rows advanced by the memoized recurrence instead of one incomplete-beta
  // evaluation per term.
  const auto sweep_small = numeric::BinomialSweep::shared(small, p);
  const auto sweep_big = numeric::BinomialSweep::shared(big, p);
  double acc = 0.0;
  for (std::int64_t i = sweep_small->lo(); i <= sweep_small->hi(); ++i) {
    const double b = sweep_small->pmf(i);
    if (b == 0.0) continue;
    acc += b * sweep_big->cdf(i);
  }
  return std::min(acc, 1.0);
}

double misranking_gaussian(double s1, double s2, double p) {
  if (!(s1 > 0.0) || !(s2 > 0.0)) {
    throw std::invalid_argument("misranking_gaussian: sizes must be > 0");
  }
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("misranking_gaussian: p in (0,1]");
  }
  const double spread = gaussian_spread(s1, s2);
  if (p == 1.0) {
    // Sampling is the identity; r is infinite and 0 * r must not reach erfc.
    return spread == 0.0 ? 0.5 : 0.0;
  }
  return 0.5 * numeric::erfc(spread * gaussian_rate_factor(p));
}

double gaussian_spread(double s1, double s2) {
  return std::abs(s2 - s1) / std::sqrt(2.0 * (s1 + s2));
}

void gaussian_spreads(double x, std::span<double> sizes) {
  spreads_on(numeric::dispatched_isa(), x, sizes);
}

void gaussian_spreads(numeric::Isa isa, double x, std::span<double> sizes) {
  if (!numeric::isa_supported(isa)) {
    throw std::invalid_argument(std::string("gaussian_spreads: this CPU cannot run the ") +
                                numeric::isa_name(isa) + " clone");
  }
  spreads_on(isa, x, sizes);
}

double gaussian_rate_factor(double p) { return std::sqrt(p / (1.0 - p)); }

double misranking_hybrid(double s1, double s2, double p) {
  if (s1 > s2) std::swap(s1, s2);
  if (!(s1 > 0.0)) {
    throw std::invalid_argument("misranking_hybrid: sizes must be > 0");
  }
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("misranking_hybrid: p in (0,1]");
  }
  const double lambda1 = p * s1;
  if (lambda1 >= 50.0 || p == 1.0) {
    // Both sampled sizes are comfortably away from zero; the Normal
    // difference approximation (the paper's Eq. 2) is accurate here.
    return misranking_gaussian(s1, s2, p);
  }

  // Semi-exact: condition on the smaller flow's sampled size k (binomial,
  // a short effective support since lambda1 < 10) and accumulate
  // P{s_big <= k} with an incrementally-updated CDF.
  const auto n1 = std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(s1)));
  const std::int64_t k_max = std::min<std::int64_t>(
      n1, static_cast<std::int64_t>(std::ceil(lambda1 + 12.0 * std::sqrt(lambda1 + 1.0) + 30.0)));

  // Smaller flow pmf, iterated via the binomial recurrence.
  double f1 = std::exp(static_cast<double>(n1) * std::log1p(-p));
  const double odds = p / (1.0 - p);

  // Larger flow CDF branch selection.
  const double mu2 = p * s2;
  const double var2 = p * (1.0 - p) * s2;
  const bool use_normal = var2 >= 400.0;
  const bool use_poisson = !use_normal && p <= 0.05;
  const auto n2 = std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(s2)));

  // Incremental state for the Poisson branch.
  double pois_term = std::exp(-mu2);
  double pois_cdf = pois_term;
  // Incremental state for the exact binomial branch.
  double bin_term = std::exp(static_cast<double>(n2) * std::log1p(-p));
  double bin_cdf = bin_term;

  double acc = 0.0;
  for (std::int64_t k = 0; k <= k_max; ++k) {
    double cdf2;
    if (use_normal) {
      cdf2 = numeric::normal_cdf((static_cast<double>(k) + 0.5 - mu2) /
                                 std::sqrt(var2));
    } else if (use_poisson) {
      cdf2 = pois_cdf;
    } else {
      cdf2 = k <= n2 ? bin_cdf : 1.0;
    }
    acc += f1 * std::min(cdf2, 1.0);

    // Advance all incremental states to k+1.
    if (k < n1) {
      f1 *= static_cast<double>(n1 - k) / static_cast<double>(k + 1) * odds;
    } else {
      f1 = 0.0;
    }
    pois_term *= mu2 / static_cast<double>(k + 1);
    pois_cdf += pois_term;
    if (k + 1 <= n2) {
      bin_term *= static_cast<double>(n2 - k) / static_cast<double>(k + 1) * odds;
      bin_cdf += bin_term;
    }
    if (f1 == 0.0) break;
  }
  return std::min(acc, 1.0);
}

double misranking_abs_error(std::int64_t s1, std::int64_t s2, double p) {
  return std::abs(misranking_exact(s1, s2, p) -
                  misranking_gaussian(static_cast<double>(s1),
                                      static_cast<double>(s2), p));
}

double misranking_vs_one_packet(std::int64_t s, double p) {
  if (s < 1) throw std::invalid_argument("misranking_vs_one_packet: s >= 1");
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("misranking_vs_one_packet: p in [0,1]");
  }
  // (1-p)^{S-1} (1 - p + p^2 S), Sec. 3.1.
  return std::exp(static_cast<double>(s - 1) * std::log1p(-p)) *
         (1.0 - p + p * p * static_cast<double>(s));
}

}  // namespace flowrank::core
