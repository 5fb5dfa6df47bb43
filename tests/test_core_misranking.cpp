// Tests for the two-flow misranking model (Secs. 3-4) and the optimal
// sampling rate solver.
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/core/misranking.hpp"
#include "flowrank/core/optimal_rate.hpp"
#include "flowrank/numeric/special.hpp"
#include "flowrank/util/rng.hpp"

namespace fc = flowrank::core;

namespace {

/// Brute-force Pm via enumeration of both binomials (tiny sizes only).
double brute_force_pm(int s1, int s2, double p) {
  auto pmf = [&](int k, int n) {
    double acc = 0.0;
    // direct binomial pmf
    double log_p = std::log(p), log_q = std::log1p(-p);
    double log_choose = 0.0;
    for (int i = 0; i < k; ++i) {
      log_choose += std::log(static_cast<double>(n - i)) -
                    std::log(static_cast<double>(i + 1));
    }
    acc = std::exp(log_choose + k * log_p + (n - k) * log_q);
    return acc;
  };
  if (s1 == s2) {
    double agree = 0.0;
    for (int i = 1; i <= s1; ++i) agree += pmf(i, s1) * pmf(i, s2);
    return 1.0 - agree;
  }
  const int small = std::min(s1, s2), big = std::max(s1, s2);
  double acc = 0.0;
  for (int i = 0; i <= small; ++i) {
    for (int j = 0; j <= i; ++j) acc += pmf(i, small) * pmf(j, big);
  }
  return acc;
}

/// Monte-Carlo Pm estimate.
double monte_carlo_pm(int s1, int s2, double p, int trials, std::uint64_t seed) {
  auto eng = flowrank::util::make_engine(seed);
  std::binomial_distribution<int> b1(s1, p), b2(s2, p);
  int mis = 0;
  for (int i = 0; i < trials; ++i) {
    const int x1 = b1(eng), x2 = b2(eng);
    if (s1 < s2 ? x1 >= x2 : x2 >= x1) ++mis;
  }
  return static_cast<double>(mis) / trials;
}

}  // namespace

TEST(Misranking, MatchesBruteForceEnumeration) {
  for (double p : {0.05, 0.3, 0.7}) {
    for (int s1 : {1, 3, 10}) {
      for (int s2 : {1, 5, 20}) {
        EXPECT_NEAR(fc::misranking_exact(s1, s2, p), brute_force_pm(s1, s2, p), 1e-10)
            << "s1=" << s1 << " s2=" << s2 << " p=" << p;
      }
    }
  }
}

TEST(Misranking, MatchesMonteCarlo) {
  // 300 vs 500 packets at 5%: a realistic "two large flows" pair.
  const double exact = fc::misranking_exact(300, 500, 0.05);
  const double mc = monte_carlo_pm(300, 500, 0.05, 400000, 99);
  EXPECT_NEAR(exact, mc, 4.0 * std::sqrt(mc * (1 - mc) / 400000) + 1e-4);
}

TEST(Misranking, SymmetricInSizes) {
  for (double p : {0.01, 0.2}) {
    EXPECT_DOUBLE_EQ(fc::misranking_exact(17, 60, p), fc::misranking_exact(60, 17, p));
    EXPECT_DOUBLE_EQ(fc::misranking_gaussian(17, 60, p),
                     fc::misranking_gaussian(60, 17, p));
  }
}

// Eq. (2) as (1/2) erfc(c r): the spread c is the pair's, exactly
// symmetric; the rate factor r is the rate's. The product is the
// function bit for bit, and p == 1 is lossless without erfc(0 * inf).
// gaussian_spreads is gaussian_spread bit for bit, on the dispatched
// clone and, where the CPU has AVX2, on both clones.
TEST(Misranking, GaussianSpreadsMatchScalarOnEveryClone) {
  const double x = 7.25;
  std::vector<double> sizes;
  for (int i = 0; i < 300; ++i) sizes.push_back(3.2 * std::pow(1.0 + i / 7.0, 1.3));
  sizes.push_back(x);
  std::vector<flowrank::numeric::Isa> clones = {flowrank::numeric::Isa::kBaseline};
  if (flowrank::numeric::isa_supported(flowrank::numeric::Isa::kAvx2)) {
    clones.push_back(flowrank::numeric::Isa::kAvx2);
  }
  std::vector<double> dispatched = sizes;
  fc::gaussian_spreads(x, dispatched);
  for (const auto isa : clones) {
    std::vector<double> spreads = sizes;
    fc::gaussian_spreads(isa, x, spreads);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_EQ(spreads[i], fc::gaussian_spread(x, sizes[i]))
          << flowrank::numeric::isa_name(isa) << " size=" << sizes[i];
      EXPECT_EQ(spreads[i], dispatched[i]);
    }
  }
}

TEST(Misranking, GaussianSplitsIntoSpreadAndRate) {
  const double sizes[][2] = {{17, 60}, {3.25, 3.5}, {1000, 1001}, {2.0, 5e6}, {40, 40}};
  for (const auto& pair : sizes) {
    const double a = pair[0];
    const double b = pair[1];
    EXPECT_EQ(fc::gaussian_spread(a, b), fc::gaussian_spread(b, a));
    for (const double p : {1e-4, 0.01, 0.2, 0.708, 0.999}) {
      const double pm = fc::misranking_gaussian(a, b, p);
      EXPECT_EQ(pm, fc::misranking_gaussian(b, a, p)) << a << " " << b << " p=" << p;
      EXPECT_EQ(pm, 0.5 * flowrank::numeric::erfc(fc::gaussian_spread(a, b) *
                                                  fc::gaussian_rate_factor(p)));
      // The unsplit Eq. (2) argument, in long double (in double, 1/p - 1
      // loses digits as p nears 1), through the platform libm.
      const long double pl = p;
      const auto argument = static_cast<double>(
          std::abs(static_cast<long double>(b) - a) /
          std::sqrt(2.0L * (1.0L / pl - 1.0L) * (static_cast<long double>(a) + b)));
      const double direct = 0.5 * std::erfc(argument);
      EXPECT_NEAR(pm, direct, 1e-13 * direct + 1e-300) << a << " " << b << " p=" << p;
    }
    EXPECT_EQ(fc::misranking_gaussian(a, b, 1.0), a == b ? 0.5 : 0.0);
  }
  EXPECT_EQ(fc::misranking_gaussian(7.5, 7.5, 1.0), 0.5);
  EXPECT_EQ(fc::misranking_gaussian(7.5, 7.25, 1.0), 0.0);
}

TEST(Misranking, LimitsInSamplingRate) {
  // p -> 0: certainty of misranking; p -> 1: perfect ranking.
  EXPECT_DOUBLE_EQ(fc::misranking_exact(10, 20, 0.0), 1.0);
  EXPECT_NEAR(fc::misranking_exact(10, 20, 0.999999), 0.0, 1e-4);
  EXPECT_DOUBLE_EQ(fc::misranking_gaussian(10, 20, 1.0), 0.0);
}

TEST(Misranking, MonotoneDecreasingInP) {
  double prev = 1.1;
  for (double p : {0.001, 0.01, 0.05, 0.1, 0.3, 0.6, 0.9}) {
    const double pm = fc::misranking_exact(50, 80, p);
    EXPECT_LT(pm, prev);
    prev = pm;
  }
}

TEST(Misranking, AggregationInequalityFromSec31) {
  // Pm(S1,S2) >= Pm(S1-k,S2): removing packets from the smaller flow can
  // only improve the ranking.
  const double p = 0.1;
  for (int k = 1; k < 40; k += 7) {
    EXPECT_GE(fc::misranking_exact(40, 60, p) + 1e-12,
              fc::misranking_exact(40 - k, 60, p));
  }
}

TEST(Misranking, HardestPairIsEqualSizes) {
  const double p = 0.05;
  const double equal = fc::misranking_exact(100, 100, p);
  for (int s2 : {101, 120, 200, 400}) {
    EXPECT_LT(fc::misranking_exact(100, s2, p), equal);
  }
}

TEST(Misranking, VsOnePacketClosedForm) {
  // Sec 3.1: against a 1-packet flow, Pm = (1-p)^{S-1} (1-p+p^2 S).
  for (double p : {0.01, 0.1, 0.5}) {
    for (int s : {2, 10, 100, 1000}) {
      EXPECT_NEAR(fc::misranking_vs_one_packet(s, p),
                  std::pow(1 - p, s - 1) * (1 - p + p * p * s), 1e-12);
      // And it tends to zero as S grows.
    }
    EXPECT_LT(fc::misranking_vs_one_packet(5000, p),
              fc::misranking_vs_one_packet(50, p));
  }
}

TEST(Misranking, OnePacketFormulaMatchesExactModel) {
  for (double p : {0.05, 0.2, 0.6}) {
    for (int s : {2, 5, 30, 300}) {
      EXPECT_NEAR(fc::misranking_exact(1, s, p), fc::misranking_vs_one_packet(s, p),
                  1e-9)
          << "p=" << p << " s=" << s;
    }
  }
}

TEST(Misranking, GaussianCloseToExactWhenPSLarge) {
  // Fig. 3's observation: absolute error small once pS >~ 3 for one flow.
  for (double p : {0.01, 0.05}) {
    for (int s1 : {400, 800}) {
      for (int s2 : {500, 1000}) {
        if (p * std::max(s1, s2) >= 3.0) {
          EXPECT_LT(fc::misranking_abs_error(s1, s2, p), 0.08)
              << "p=" << p << " s1=" << s1 << " s2=" << s2;
        }
      }
    }
  }
}

TEST(Misranking, GaussianErrorLargeWhenPSTiny) {
  // With pS << 1 both flows usually vanish: exact says "misranked" with
  // high probability, the Gaussian does not capture that.
  EXPECT_GT(fc::misranking_abs_error(5, 8, 0.01), 0.3);
}

TEST(Misranking, SquareRootScalingLaw) {
  // Sec. 4: with S1 = alpha*S2 fixed, Pm decreases as sizes grow; with
  // S2-S1 = k fixed, Pm increases as sizes grow.
  const double p = 0.01;
  EXPECT_GT(fc::misranking_gaussian(50, 100, p), fc::misranking_gaussian(500, 1000, p));
  EXPECT_LT(fc::misranking_gaussian(50, 60, p), fc::misranking_gaussian(500, 510, p));
}

TEST(Misranking, InvalidArguments) {
  EXPECT_THROW((void)fc::misranking_exact(0, 5, 0.1), std::invalid_argument);
  EXPECT_THROW((void)fc::misranking_exact(5, 5, -0.1), std::invalid_argument);
  EXPECT_THROW((void)fc::misranking_gaussian(5, 5, 0.0), std::invalid_argument);
  EXPECT_THROW((void)fc::misranking_vs_one_packet(0, 0.1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Optimal sampling rate (Sec. 3.2, Figs. 1-2)
// ---------------------------------------------------------------------------

TEST(OptimalRate, AchievesTarget) {
  const double target = 1e-3;
  for (auto [s1, s2] : {std::pair{100, 200}, {10, 1000}, {500, 600}}) {
    const double p = fc::optimal_sampling_rate(s1, s2, target);
    if (p < 1.0) {
      EXPECT_NEAR(fc::misranking_exact(s1, s2, p), target, target * 0.05)
          << s1 << "," << s2;
    }
    // Any higher rate does at least as well.
    EXPECT_LE(fc::misranking_exact(s1, s2, std::min(1.0, p * 1.2)),
              target * 1.05);
  }
}

TEST(OptimalRate, EqualSizesNeedNearCompleteSampling) {
  // Equal sizes only rank correctly when sampling is nearly lossless (a
  // non-zero sampled tie counts as correct, so p -> 1 does succeed).
  const double p = fc::optimal_sampling_rate(100, 100, 1e-3);
  EXPECT_GT(p, 0.99);
  EXPECT_LE(fc::misranking_exact(100, 100, p), 1e-3 * 1.05);
}

TEST(OptimalRate, DecreasesWithProportionalGap) {
  // Flows alpha*S vs S: needed rate drops as S grows (Fig. 1 narrowing).
  const double p_small = fc::optimal_sampling_rate(50, 100, 1e-3);
  const double p_large = fc::optimal_sampling_rate(500, 1000, 1e-3);
  EXPECT_LT(p_large, p_small);
}

TEST(OptimalRate, IncreasesWithConstantGap) {
  // Flows S-k vs S: needed rate grows with S (Fig. 2 widening).
  const double p_small = fc::optimal_sampling_rate(50, 60, 1e-3);
  const double p_large = fc::optimal_sampling_rate(500, 510, 1e-3);
  EXPECT_GT(p_large, p_small);
}

TEST(OptimalRate, GaussianModelAgreesForLargeFlows) {
  const double pe = fc::optimal_sampling_rate(600, 900, 1e-3,
                                              fc::MisrankingModel::kExact);
  const double pg = fc::optimal_sampling_rate(600, 900, 1e-3,
                                              fc::MisrankingModel::kGaussian);
  EXPECT_NEAR(pe, pg, 0.05);
}

TEST(OptimalRate, RespectsFloor) {
  // Hugely different flows need almost no sampling; solver returns p_min
  // once the target is met there ((1-p)^{S-1} ~ e^{-20} << 1e-3).
  EXPECT_DOUBLE_EQ(fc::optimal_sampling_rate(1, 20000000, 1e-3), 1e-6);
}

TEST(OptimalRate, InvalidArguments) {
  EXPECT_THROW((void)fc::optimal_sampling_rate(10, 20, 0.0), std::invalid_argument);
  EXPECT_THROW((void)fc::optimal_sampling_rate(10, 20, 1.0), std::invalid_argument);
  EXPECT_THROW((void)fc::optimal_sampling_rate(10, 20, 0.5, fc::MisrankingModel::kExact,
                                               0.0),
               std::invalid_argument);
}
