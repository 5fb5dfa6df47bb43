// Unit and property tests for the numeric substrate.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/numeric/binomial.hpp"
#include "flowrank/numeric/incbeta.hpp"
#include "flowrank/numeric/quadrature.hpp"
#include "flowrank/numeric/roots.hpp"
#include "flowrank/numeric/special.hpp"
#include "flowrank/numeric/stats.hpp"
#include "flowrank/util/rng.hpp"

namespace fn = flowrank::numeric;

TEST(Special, LogFactorialMatchesDirectProduct) {
  double acc = 0.0;
  for (int n = 1; n <= 200; ++n) {
    acc += std::log(static_cast<double>(n));
    EXPECT_NEAR(fn::log_factorial(n), acc, 1e-9) << "n=" << n;
  }
}

TEST(Special, LogFactorialLargeUsesLgamma) {
  EXPECT_NEAR(fn::log_factorial(5000), std::lgamma(5001.0), 1e-9);
}

TEST(Special, LogChooseSymmetry) {
  for (int n = 0; n <= 60; ++n) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_NEAR(fn::log_choose(n, k), fn::log_choose(n, n - k), 1e-10);
    }
  }
}

TEST(Special, LogChooseOutOfRangeIsMinusInf) {
  EXPECT_TRUE(std::isinf(fn::log_choose(10, -1)));
  EXPECT_TRUE(std::isinf(fn::log_choose(10, 11)));
}

TEST(Special, LogChoosePascalIdentity) {
  // C(n,k) = C(n-1,k-1) + C(n-1,k)
  for (int n = 2; n <= 40; ++n) {
    for (int k = 1; k < n; ++k) {
      const double lhs = fn::log_choose(n, k);
      const double rhs =
          fn::log_sum_exp(fn::log_choose(n - 1, k - 1), fn::log_choose(n - 1, k));
      EXPECT_NEAR(lhs, rhs, 1e-9);
    }
  }
}

TEST(Special, LogSumExpHandlesInfinity) {
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(fn::log_sum_exp(ninf, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(fn::log_sum_exp(3.0, ninf), 3.0);
}

TEST(Special, Log1mExpIdentity) {
  for (double x : {-1e-8, -0.1, -0.5, -1.0, -5.0, -30.0}) {
    EXPECT_NEAR(std::exp(fn::log1m_exp(x)), 1.0 - std::exp(x), 1e-12);
  }
}

TEST(Special, NormalCdfSymmetry) {
  for (double x : {0.0, 0.5, 1.0, 2.5, 6.0}) {
    EXPECT_NEAR(fn::normal_cdf(x) + fn::normal_cdf(-x), 1.0, 1e-14);
    EXPECT_NEAR(fn::normal_sf(x), fn::normal_cdf(-x), 1e-300);
  }
}

TEST(Special, NormalCdfKnownValues) {
  EXPECT_NEAR(fn::normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(fn::normal_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(fn::normal_sf(6.0), 9.865876e-10, 1e-14);
}

TEST(Special, DomainErrors) {
  EXPECT_THROW((void)fn::log_gamma(0.0), std::domain_error);
  EXPECT_THROW((void)fn::log_factorial(-1), std::domain_error);
  EXPECT_THROW((void)fn::log1m_exp(0.5), std::domain_error);
}

// ---------------------------------------------------------------------------
// erfc: the in-repo Cody erfc and its batch form
// ---------------------------------------------------------------------------

namespace {

/// Distance in units in the last place between two doubles of one sign.
std::int64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

}  // namespace

// A dense grid of [0, 27] (step 2^-14, so every regime edge is a grid
// point) against the platform libm: within 8 ulp wherever libm's erfc
// is at least DBL_MIN, in [0, DBL_MIN] beyond, and non-increasing.
// The negative half, 2 - erfc(|x|), is held to the same bound.
TEST(Erfc, WithinEightUlpOfLibm) {
  constexpr double kStep = 0x1p-14;
  const double dbl_min = std::numeric_limits<double>::min();
  double previous = 2.0;
  std::int64_t worst = 0;
  for (int i = 0; i <= 27 * (1 << 14); ++i) {
    const double x = i * kStep;
    const double got = fn::erfc(x);
    const double libm = std::erfc(x);
    if (libm >= dbl_min) {
      worst = std::max(worst, ulp_distance(got, libm));
    } else {
      EXPECT_GE(got, 0.0) << "x=" << x;
      EXPECT_LE(got, dbl_min) << "x=" << x;
    }
    EXPECT_LE(got, previous) << "x=" << x;
    previous = got;
    const std::int64_t negative = ulp_distance(fn::erfc(-x), std::erfc(-x));
    EXPECT_LE(negative, 8) << "x=" << -x;
  }
  EXPECT_LE(worst, 8);
  EXPECT_EQ(fn::erfc(0.0), 1.0);
  EXPECT_EQ(fn::erfc(-0.0), 1.0);
  EXPECT_EQ(fn::erfc(std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_EQ(fn::erfc(-std::numeric_limits<double>::infinity()), 2.0);
  EXPECT_TRUE(std::isnan(fn::erfc(std::numeric_limits<double>::quiet_NaN())));
}

// Hexfloat captures of the in-repo erfc: the same bits under every
// compiler (the library builds numeric/special.cpp without contraction),
// so the clang CI job checks them too. Regime edges, both sides of each,
// the tail down to 26.5, and negative arguments.
TEST(Erfc, HexfloatGolden) {
  const struct {
    double x, erfc;
  } goldens[] = {
      {0x1p-30, 0x1.fffffff6f9145p-1},
      {0x1.999999999999ap-4, 0x1.c66b42bb6099ap-1},
      {0x1.ep-2, 0x1.03c82ab5eb832p-1},
      {0x1.e000000000001p-2, 0x1.03c82ab5eb831p-1},
      {0x1.8p-1, 0x1.27c6d14c5e341p-2},
      {0x1p+0, 0x1.4226162fbddd6p-3},
      {0x1.e451b93037d63p+0, 0x1.e8ffe4f38c60ep-8},
      {0x1.4p+1, 0x1.aab859b20ac9fp-12},
      {0x1p+2, 0x1.08ddd13bd35e7p-26},
      {0x1.0000000000001p+2, 0x1.08ddd13bd35c4p-26},
      {0x1.8p+2, 0x1.8cf81557d20b6p-56},
      {0x1.4p+3, 0x1.7d8a7f2a8a2cfp-149},
      {0x1.4p+4, 0x1.b54f244df93dfp-583},
      {0x1.a8p+4, 0x1.3df6725a60cf5p-1019},
      {-0x1.3333333333333p-2, 0x1.5420e22077a84p+0},
      {-0x1.8p+0, 0x1.f752aab89bd7p+0},
      {-0x1.4p+2, 0x1.fffffffffe4f4p+0},
  };
  for (const auto& g : goldens) {
    EXPECT_EQ(fn::erfc(g.x), g.erfc) << std::hexfloat << "x=" << g.x;
  }
}

// erfc_scaled(c, r) is the scalar erfc(c[i] * r) bit for bit, whatever
// the order of its input: ascending, descending and shuffled arguments
// that straddle every regime edge (0.46875, 4 and the DBL_MIN cutoff),
// on both sides of zero, with the non-finite values.
TEST(Erfc, BatchEqualsScalarBitForBit) {
  std::vector<double> c;
  for (const double edge : {0.0, 0.46875, 4.0, 26.543, 26.55}) {
    for (const double sign : {1.0, -1.0}) {
      double x = sign * edge;
      for (int k = 0; k < 3; ++k) x = std::nextafter(x, -sign * 30.0);
      for (int k = 0; k < 7; ++k) {
        c.push_back(x);
        x = std::nextafter(x, sign * 30.0);
      }
    }
  }
  for (int i = -640; i <= 640; ++i) c.push_back(i / 20.0 + 0.013);
  c.push_back(std::numeric_limits<double>::infinity());
  c.push_back(-std::numeric_limits<double>::infinity());
  c.push_back(std::numeric_limits<double>::quiet_NaN());

  std::vector<double> ascending = c;
  std::sort(ascending.begin(), ascending.end(),
            [](double a, double b) { return a < b || (std::isnan(b) && !std::isnan(a)); });
  std::vector<double> descending(ascending.rbegin(), ascending.rend());
  std::vector<double> shuffled = c;
  std::mt19937_64 engine(26);
  std::shuffle(shuffled.begin(), shuffled.end(), engine);

  for (const auto* input : {&ascending, &descending, &shuffled}) {
    for (const double r : {1.0, 0.37, 1.557}) {
      std::vector<double> out(input->size());
      fn::erfc_scaled(*input, r, out);
      for (std::size_t i = 0; i < input->size(); ++i) {
        const double scalar = fn::erfc((*input)[i] * r);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]), std::bit_cast<std::uint64_t>(scalar))
            << "c=" << (*input)[i] << " r=" << r;
      }
    }
  }
  std::vector<double> short_out(2);
  EXPECT_THROW(fn::erfc_scaled(c, 1.0, short_out), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// unit_power: y^e by the in-repo log and exp kernels
// ---------------------------------------------------------------------------

// Within 1 ulp of glibc's pow over the whole of (0, 1], subnormal y
// included, for |e| <= 4 (every Pareto with beta >= 1/4), and within 4
// ulp at e = -40, where log y's remaining error is scaled up tenfold;
// y^e overflows to inf where pow's does; exactly 1 at y = 1 and for
// e = 0.
TEST(UnitPower, WithinOneUlpOfPowOverTheDomain) {
  std::mt19937_64 engine(28);
  for (const double e : {-0.25, -1.0 / 1.05, -0.5, -1.0, -3.5, -4.0, -40.0}) {
    std::int64_t worst = 0;
    for (int i = 0; i < 20000; ++i) {
      const double mantissa = 0.5 + static_cast<double>(engine() >> 12) * 0x1p-53;
      const double y = std::ldexp(mantissa, -static_cast<int>(engine() % 1075));
      if (!(y > 0.0)) continue;
      const double want = std::pow(y, e);
      const double got = fn::unit_power(y, e);
      if (std::isinf(want)) {
        EXPECT_TRUE(std::isinf(got)) << "y=" << y << " e=" << e;
        continue;
      }
      worst = std::max(worst, ulp_distance(got, want));
    }
    EXPECT_LE(worst, e < -4.0 ? 4 : 1) << "e=" << e;
    EXPECT_EQ(fn::unit_power(1.0, e), 1.0);
  }
  EXPECT_EQ(fn::unit_power(0x1p-1074, 0.0), 1.0);
  EXPECT_EQ(fn::unit_power(0.3, -0.0), 1.0);
}

TEST(UnitPower, DomainErrors) {
  for (const double y : {0.0, -0.5, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)fn::unit_power(y, -0.5), std::domain_error) << y;
  }
  for (const double e : {1e-300, 0.5, -0x1p970, -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)fn::unit_power(0.5, e), std::domain_error) << e;
    std::vector<double> out(1);
    EXPECT_THROW(fn::scaled_unit_powers(std::vector<double>{0.5}, e, 1.0, out),
                 std::domain_error)
        << e;
  }
  std::vector<double> out(1);
  EXPECT_THROW(fn::scaled_unit_powers(std::vector<double>{0.5, 0.25}, -0.5, 1.0, out),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Instruction-set clones of the batch kernels
// ---------------------------------------------------------------------------

// On a CPU with AVX2, the AVX2 and baseline clones of erfc_scaled and of
// scaled_unit_powers agree bit for bit, and the dispatched kernel is the
// AVX2 one. The inputs straddle every erfc regime edge (both signs, the
// non-finite values) and, for the powers, y near 2^-60, 1, every power of
// two between, and the subnormals.
TEST(KernelDispatch, Avx2ClonesMatchBaselineBitForBit) {
  EXPECT_TRUE(fn::isa_supported(fn::Isa::kBaseline));
  if (!fn::isa_supported(fn::Isa::kAvx2)) {
    EXPECT_EQ(fn::dispatched_isa(), fn::Isa::kBaseline);
    GTEST_SKIP() << "this CPU or build has no AVX2 clones; only the baseline runs";
  }
  EXPECT_EQ(fn::dispatched_isa(), fn::Isa::kAvx2);

  std::vector<double> c;
  for (const double edge : {0.0, 0.46875, 4.0, 26.543, 26.55}) {
    for (const double sign : {1.0, -1.0}) {
      double x = sign * edge;
      for (int k = 0; k < 3; ++k) x = std::nextafter(x, -sign * 30.0);
      for (int k = 0; k < 7; ++k) {
        c.push_back(x);
        x = std::nextafter(x, sign * 30.0);
      }
    }
  }
  for (int i = -640; i <= 640; ++i) c.push_back(i / 20.0 + 0.013);
  c.push_back(std::numeric_limits<double>::infinity());
  c.push_back(-std::numeric_limits<double>::infinity());
  c.push_back(std::numeric_limits<double>::quiet_NaN());
  std::sort(c.begin(), c.end(),
            [](double a, double b) { return a < b || (std::isnan(b) && !std::isnan(a)); });
  for (const double r : {1.0, 0.37, 1.557}) {
    std::vector<double> baseline(c.size()), avx2(c.size());
    fn::erfc_scaled(fn::Isa::kBaseline, c, r, baseline);
    fn::erfc_scaled(fn::Isa::kAvx2, c, r, avx2);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(baseline[i]), std::bit_cast<std::uint64_t>(avx2[i]))
          << "c=" << c[i] << " r=" << r;
    }
  }

  std::vector<double> y;
  for (int k = 0; k <= 60; ++k) {
    const double power = std::ldexp(1.0, -k);
    double v = power;
    for (int j = 0; j < 3; ++j) v = std::nextafter(v, 0.0);
    for (int j = 0; j < 7; ++j) {
      if (v <= 1.0) y.push_back(v);
      v = std::nextafter(v, 2.0);
    }
  }
  for (int i = 1; i <= 1000; ++i) y.push_back(i / 1000.0);
  y.push_back(std::numeric_limits<double>::min());
  y.push_back(std::numeric_limits<double>::denorm_min());
  for (const double e : {-1.0 / 1.05, -2.0 / 3.0, -0.25, -3.5}) {
    std::vector<double> baseline(y.size()), avx2(y.size());
    fn::scaled_unit_powers(fn::Isa::kBaseline, y, e, 3.2, baseline);
    fn::scaled_unit_powers(fn::Isa::kAvx2, y, e, 3.2, avx2);
    std::vector<double> in_place = y;
    fn::scaled_unit_powers(fn::Isa::kAvx2, in_place, e, 3.2, in_place);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(baseline[i]), std::bit_cast<std::uint64_t>(avx2[i]))
          << "y=" << y[i] << " e=" << e;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(baseline[i]),
                std::bit_cast<std::uint64_t>(in_place[i]))
          << "y=" << y[i] << " e=" << e;
    }
  }
}

// ---------------------------------------------------------------------------
// Incomplete beta
// ---------------------------------------------------------------------------

TEST(IncBeta, EndpointValues) {
  EXPECT_DOUBLE_EQ(fn::incbeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(fn::incbeta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncBeta, UniformSpecialCase) {
  // I_x(1,1) = x.
  for (double x = 0.05; x < 1.0; x += 0.05) {
    EXPECT_NEAR(fn::incbeta(1.0, 1.0, x), x, 1e-12);
  }
}

TEST(IncBeta, PowerSpecialCase) {
  // I_x(a,1) = x^a.
  for (double a : {0.5, 1.0, 2.0, 7.5}) {
    for (double x : {0.1, 0.4, 0.9}) {
      EXPECT_NEAR(fn::incbeta(a, 1.0, x), std::pow(x, a), 1e-12);
    }
  }
}

TEST(IncBeta, ComplementIdentity) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  for (double a : {0.5, 2.0, 30.0}) {
    for (double b : {1.5, 8.0, 200.0}) {
      for (double x : {0.01, 0.3, 0.77, 0.999}) {
        EXPECT_NEAR(fn::incbeta(a, b, x), 1.0 - fn::incbeta(b, a, 1.0 - x), 1e-10);
      }
    }
  }
}

TEST(IncBeta, DomainErrors) {
  EXPECT_THROW((void)fn::incbeta(0.0, 1.0, 0.5), std::domain_error);
  EXPECT_THROW((void)fn::incbeta(1.0, 1.0, -0.1), std::domain_error);
  EXPECT_THROW((void)fn::incbeta(1.0, 1.0, 1.1), std::domain_error);
}

// ---------------------------------------------------------------------------
// Binomial / Poisson
// ---------------------------------------------------------------------------

TEST(Binomial, PmfSumsToOne) {
  for (int n : {0, 1, 7, 40}) {
    for (double p : {0.0, 0.05, 0.5, 0.93, 1.0}) {
      double acc = 0.0;
      for (int k = 0; k <= n; ++k) acc += fn::binomial_pmf(k, n, p);
      EXPECT_NEAR(acc, 1.0, 1e-12) << "n=" << n << " p=" << p;
    }
  }
}

TEST(Binomial, CdfMatchesDirectSumSmall) {
  for (int n : {5, 31, 64}) {
    for (double p : {0.01, 0.37, 0.8}) {
      double acc = 0.0;
      for (int k = 0; k <= n; ++k) {
        acc += fn::binomial_pmf(k, n, p);
        EXPECT_NEAR(fn::binomial_cdf(k, n, p), std::min(acc, 1.0), 1e-11);
      }
    }
  }
}

TEST(Binomial, CdfMatchesDirectSumLarge) {
  // n=1000 forces the incomplete-beta path; compare to direct log-space sum.
  const int n = 1000;
  for (double p : {0.001, 0.01, 0.1}) {
    for (int k : {0, 1, 5, 20, 100, 999}) {
      double acc = 0.0;
      for (int i = 0; i <= k; ++i) acc += fn::binomial_pmf(i, n, p);
      EXPECT_NEAR(fn::binomial_cdf(k, n, p), std::min(acc, 1.0), 1e-9)
          << "p=" << p << " k=" << k;
    }
  }
}

TEST(Binomial, SfComplementsCdf) {
  for (int n : {10, 2000}) {
    for (double p : {0.002, 0.4}) {
      for (int k = 0; k < n; k += n / 10 + 1) {
        EXPECT_NEAR(fn::binomial_cdf(k, n, p) + fn::binomial_sf(k, n, p), 1.0, 1e-9);
      }
    }
  }
}

TEST(Binomial, HugeNTinyPMatchesPoissonLimit) {
  // Regime of the top-t membership probabilities: N ~ 1e6, Pi ~ 1e-5.
  const std::int64_t n = 1000000;
  const double p = 1e-5;  // lambda = 10
  for (int k = 0; k <= 30; ++k) {
    EXPECT_NEAR(fn::binomial_cdf(k, n, p), fn::poisson_cdf(k, 10.0), 2e-5) << k;
  }
}

TEST(Binomial, ExtremeTailStaysInUnitInterval) {
  const double v = fn::binomial_cdf(0, 3500000, 1e-3);
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1e-300);  // (1-1e-3)^(3.5e6) ~ e^-3500
}

TEST(Binomial, EdgeProbabilities) {
  EXPECT_DOUBLE_EQ(fn::binomial_pmf(0, 10, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(fn::binomial_pmf(10, 10, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(fn::binomial_cdf(-1, 10, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(fn::binomial_cdf(10, 10, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(fn::binomial_sf(10, 10, 0.5), 0.0);
}

TEST(Poisson, PmfSumsToOne) {
  for (double lambda : {0.1, 1.0, 7.3, 40.0}) {
    double acc = 0.0;
    for (int k = 0; k < 400; ++k) acc += fn::poisson_pmf(k, lambda);
    EXPECT_NEAR(acc, 1.0, 1e-12);
  }
}

TEST(Poisson, CdfMonotone) {
  double prev = 0.0;
  for (int k = 0; k <= 50; ++k) {
    const double c = fn::poisson_cdf(k, 12.0);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Quadrature
// ---------------------------------------------------------------------------

TEST(Quadrature, GaussLegendreIntegratesPolynomialsExactly) {
  // Order-n GL is exact for degree 2n-1.
  const auto poly = [](double x) { return 5 * x * x * x - 2 * x * x + x - 7; };
  EXPECT_NEAR(fn::integrate_gl(poly, -2.0, 3.0, 2),
              5.0 / 4 * (81 - 16) - 2.0 / 3 * (27 + 8) + 0.5 * (9 - 4) - 7 * 5, 1e-10);
}

TEST(Quadrature, WeightsSumToIntervalLength) {
  for (int order : {4, 16, 32, 64, 128}) {
    const auto& rule = fn::gauss_legendre(order);
    double acc = 0.0;
    for (double w : rule.weights) acc += w;
    EXPECT_NEAR(acc, 2.0, 1e-13) << order;
  }
}

TEST(Quadrature, IntegratesGaussianTail) {
  // ∫_0^∞ e^{-x^2/2} dx = sqrt(pi/2); truncate at 40.
  const auto f = [](double x) { return std::exp(-0.5 * x * x); };
  EXPECT_NEAR(fn::integrate_adaptive(f, 0.0, 40.0, 1e-14, 1e-12),
              std::sqrt(M_PI / 2.0), 1e-10);
}

TEST(Quadrature, LogPanelsHandleWideDynamicRange) {
  // ∫_1e-9^1 1/x dx = ln(1e9).
  const auto f = [](double x) { return 1.0 / x; };
  EXPECT_NEAR(fn::integrate_gl_log(f, 1e-9, 1.0, 64, 32), std::log(1e9), 1e-8);
}

TEST(Quadrature, InvalidArguments) {
  const auto f = [](double x) { return x; };
  EXPECT_THROW((void)fn::gauss_legendre(0), std::domain_error);
  EXPECT_THROW((void)fn::gauss_legendre(500), std::domain_error);
  EXPECT_THROW((void)fn::integrate_gl_log(f, 0.0, 1.0, 4), std::domain_error);
  EXPECT_THROW((void)fn::integrate_gl_log(f, 1.0, 1.0, 4), std::domain_error);
}

// ---------------------------------------------------------------------------
// Roots
// ---------------------------------------------------------------------------

TEST(Roots, BisectFindsCubeRoot) {
  const auto f = [](double x) { return x * x * x - 2.0; };
  const auto r = fn::bisect(f, 0.0, 2.0, 1e-13);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::cbrt(2.0), 1e-10);
}

TEST(Roots, BrentFindsTranscendentalRoot) {
  const auto f = [](double x) { return std::cos(x) - x; };
  const auto r = fn::brent(f, 0.0, 1.0, 1e-14);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.7390851332151607, 1e-12);
}

TEST(Roots, BrentBeatsOrMatchesBisectIterations) {
  const auto f = [](double x) { return std::exp(x) - 5.0; };
  const auto rb = fn::bisect(f, 0.0, 3.0, 1e-12);
  const auto rr = fn::brent(f, 0.0, 3.0, 1e-12);
  EXPECT_LE(rr.iterations, rb.iterations);
  EXPECT_NEAR(rr.x, std::log(5.0), 1e-10);
}

TEST(Roots, RejectsNonBracketingInterval) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW((void)fn::bisect(f, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)fn::brent(f, -1.0, 1.0), std::invalid_argument);
}

TEST(Roots, AcceptsRootAtEndpoint) {
  const auto f = [](double x) { return x; };
  EXPECT_DOUBLE_EQ(fn::bisect(f, 0.0, 1.0).x, 0.0);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(Stats, RunningStatsMatchesClosedForm) {
  fn::RunningStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_NEAR(s.mean(), 50.5, 1e-12);
  // Sample variance of 1..100 = (100^2-1)/12 * 100/99 = 841.6666...
  EXPECT_NEAR(s.variance(), 841.66666666666663, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(Stats, MergeEqualsSequential) {
  auto eng = flowrank::util::make_engine(42);
  std::normal_distribution<double> dist(3.0, 2.0);
  fn::RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = dist(eng);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
}
