// Tests for flow-size distributions: analytic identities, sampling
// agreement, and the discretized adaptor.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/dist/discretized.hpp"
#include "flowrank/dist/empirical.hpp"
#include "flowrank/dist/exponential.hpp"
#include "flowrank/dist/pareto.hpp"
#include "flowrank/numeric/stats.hpp"
#include "flowrank/util/rng.hpp"

namespace fd = flowrank::dist;

namespace {

/// Shared property checks every distribution must satisfy.
void check_distribution_contract(const fd::FlowSizeDistribution& dist) {
  SCOPED_TRACE(dist.name());
  EXPECT_GT(dist.min_size(), 0.0);
  EXPECT_DOUBLE_EQ(dist.ccdf(dist.min_size() * 0.5), 1.0);

  // tail_quantile inverts ccdf across the support.
  for (double y : {0.9, 0.5, 0.1, 1e-3, 1e-6, 1e-9}) {
    const double x = dist.tail_quantile(y);
    EXPECT_GE(x, dist.min_size() * (1.0 - 1e-12));
    EXPECT_NEAR(dist.ccdf(x), y, 1e-6 * std::max(1.0, 1.0 / y) * y) << "y=" << y;
  }

  // ccdf decreasing.
  double prev = 1.0;
  for (double x = dist.min_size(); x < dist.tail_quantile(1e-9);
       x = x * 1.7 + 1.0) {
    const double c = dist.ccdf(x);
    EXPECT_LE(c, prev + 1e-12);
    prev = c;
  }

  // Sample mean close to analytic mean (heavy tails get a loose band).
  auto engine = flowrank::util::make_engine(314159);
  flowrank::numeric::RunningStats stats;
  for (int i = 0; i < 300000; ++i) stats.add(dist.sample(engine));
  const double rel_err = std::abs(stats.mean() - dist.mean()) / dist.mean();
  EXPECT_LT(rel_err, 0.25) << "sample mean " << stats.mean() << " vs " << dist.mean();

  // Clone preserves behaviour.
  const auto copy = dist.clone();
  EXPECT_EQ(copy->name(), dist.name());
  EXPECT_DOUBLE_EQ(copy->ccdf(dist.min_size() * 3.0), dist.ccdf(dist.min_size() * 3.0));
}

}  // namespace

TEST(Pareto, ContractHolds) {
  check_distribution_contract(fd::Pareto::from_mean(9.6, 1.5));
  check_distribution_contract(fd::Pareto::from_mean(33.2, 2.5));
}

TEST(Pareto, FromMeanHitsRequestedMean) {
  for (double beta : {1.2, 1.5, 2.0, 3.0}) {
    const auto dist = fd::Pareto::from_mean(9.6, beta);
    EXPECT_NEAR(dist.mean(), 9.6, 1e-9) << beta;
  }
}

TEST(Pareto, CcdfClosedForm) {
  const fd::Pareto dist(2.0, 1.5);
  EXPECT_NEAR(dist.ccdf(4.0), std::pow(2.0, -1.5), 1e-12);
  EXPECT_NEAR(dist.tail_quantile(std::pow(2.0, -1.5)), 4.0, 1e-9);
}

TEST(Pareto, InfiniteMeanThrows) {
  const fd::Pareto dist(1.0, 0.9);
  EXPECT_THROW((void)dist.mean(), std::logic_error);
  EXPECT_THROW((void)fd::Pareto::from_mean(9.6, 1.0), std::invalid_argument);
}

TEST(Pareto, InvalidParameters) {
  EXPECT_THROW(fd::Pareto(0.0, 1.5), std::invalid_argument);
  EXPECT_THROW(fd::Pareto(1.0, -1.0), std::invalid_argument);
  EXPECT_THROW((void)fd::Pareto(1.0, 1.5).tail_quantile(0.0), std::domain_error);
  EXPECT_THROW((void)fd::Pareto(1.0, 1.5).tail_quantile(1.5), std::domain_error);
}

// ---------------------------------------------------------------------------
// Pareto quantiles: min * y^(-1/beta) from the in-repo log and exp kernels
// ---------------------------------------------------------------------------

namespace {

/// Distance in units in the last place between two positive doubles.
std::int64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

/// A dense grid of [2^-60, 1]: 256 points per octave, plus each power of
/// two's two neighbours.
std::vector<double> quantile_grid() {
  std::vector<double> y;
  for (int i = 0; i <= 60 * 256; ++i) y.push_back(std::exp2(-i / 256.0));
  for (int k = 0; k <= 60; ++k) {
    const double power = std::ldexp(1.0, -k);
    y.push_back(std::nextafter(power, 0.0));
    if (k > 0) y.push_back(std::nextafter(power, 1.0));
  }
  return y;
}

constexpr double kQuantileBetas[] = {1.05, 1.5, 2.0, 2.5, 3.0, 4.0};

}  // namespace

// Within 4 ulp of min * std::pow(y, -1/beta) (the former definition),
// exactly min at y = 1, and non-increasing along the grid.
TEST(ParetoQuantile, WithinFourUlpOfPow) {
  const std::vector<double> grid = quantile_grid();
  for (const double beta : kQuantileBetas) {
    const auto dist = fd::Pareto::from_mean(9.6, beta);
    std::int64_t worst = 0;
    for (const double y : grid) {
      const double want = dist.min_size() * std::pow(y, -1.0 / beta);
      worst = std::max(worst, ulp_distance(dist.tail_quantile(y), want));
    }
    EXPECT_LE(worst, 4) << "beta=" << beta;
    EXPECT_EQ(dist.tail_quantile(1.0), dist.min_size()) << "beta=" << beta;
    double previous = dist.tail_quantile(0x1p-60);
    for (int i = 60 * 256 - 1; i >= 0; --i) {
      const double q = dist.tail_quantile(std::exp2(-i / 256.0));
      EXPECT_LE(q, previous) << "beta=" << beta << " i=" << i;
      previous = q;
    }
  }
}

// The batch is the scalar bit for bit, into another array and in place.
TEST(ParetoQuantile, BatchEqualsScalarBitForBit) {
  std::vector<double> y = quantile_grid();
  y.push_back(std::numeric_limits<double>::min());
  y.push_back(std::numeric_limits<double>::denorm_min());
  y.push_back(1e-300);
  for (const double beta : kQuantileBetas) {
    const auto dist = fd::Pareto::from_mean(9.6, beta);
    std::vector<double> out(y.size());
    dist.tail_quantiles(y, out);
    std::vector<double> in_place = y;
    dist.tail_quantiles(in_place, in_place);
    for (std::size_t i = 0; i < y.size(); ++i) {
      const double scalar = dist.tail_quantile(y[i]);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]), std::bit_cast<std::uint64_t>(scalar))
          << "beta=" << beta << " y=" << y[i];
      ASSERT_EQ(std::bit_cast<std::uint64_t>(in_place[i]), std::bit_cast<std::uint64_t>(scalar))
          << "beta=" << beta << " y=" << y[i];
    }
  }
}

// Both forms refuse y outside (0, 1]; the batch before it writes.
TEST(ParetoQuantile, DomainErrors) {
  const auto dist = fd::Pareto::from_mean(9.6, 1.5);
  for (const double bad : {0.0, -0.0, -1e-300, 1.0000000000000002, 2.0,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)dist.tail_quantile(bad), std::domain_error) << bad;
    const std::vector<double> y = {0.5, bad, 0.25};
    std::vector<double> out(3, -1.0);
    EXPECT_THROW(dist.tail_quantiles(y, out), std::domain_error) << bad;
    EXPECT_EQ(out[0], -1.0) << bad;
  }
  std::vector<double> short_out(1);
  EXPECT_THROW(dist.tail_quantiles(std::vector<double>{0.5, 0.25}, short_out),
               std::invalid_argument);
}

// Hexfloat captures of Pareto::from_mean(9.6, beta).tail_quantile(y):
// the same bits under every compiler (numeric/special.cpp builds without
// contraction), so the clang CI job checks them too. y = 1 and its
// neighbour below, 2^-60, the smallest normal and subnormal doubles.
TEST(ParetoQuantile, HexfloatGolden) {
  const struct {
    double beta, y, quantile;
  } goldens[] = {
      {0x1.0cccccccccccdp+0, 0x1p+0, 0x1.d41d41d41d424p-2},
      {0x1.0cccccccccccdp+0, 0x1p-60, 0x1.026b878bf6c4fp+56},
      {0x1.0cccccccccccdp+0, 0x1.fffffffffffffp-1, 0x1.d41d41d41d424p-2},
      {0x1.8p+0, 0x1p-1, 0x1.45198843124fcp+2},
      {0x1.8p+0, 0x1.203af9ee75616p-50, 0x1.dcd64fffffff4p+34},
      {0x1.8p+0, 0x1.999999999999ap-4, 0x1.db4c7760bcff1p+3},
      {0x1.8p+0, 0x1p-1022, 0x1.02082613df4c4p+683},
      {0x1.8p+0, 0x0.0000000000001p-1022, 0x1.99999999998d3p+717},
      {0x1p+1, 0x1.3333333333333p-2, 0x1.186f174f88472p+3},
      {0x1p+1, 0x1.56e1fc2f8f359p-997, 0x1.7763fd12d819fp+500},
      {0x1.4p+1, 0x1.3333333333333p-2, 0x1.2a593bd9b8512p+3},
      {0x1.4p+1, 0x1p-30, 0x1.70a3d70a3d70dp+14},
      {0x1.8p+1, 0x1.ff7ced916872bp-1, 0x1.99bc936b1cdd4p+2},
      {0x1.8p+1, 0x1.12e0be826d695p-30, 0x1.8fffffffffffcp+12},
      {0x1p+2, 0x1.8p-7, 0x1.5e21dd5c5f893p+4},
      {0x1p+2, 0x1p-60, 0x1.cccccccccccccp+17},
  };
  for (const auto& g : goldens) {
    const auto dist = fd::Pareto::from_mean(9.6, g.beta);
    EXPECT_EQ(dist.tail_quantile(g.y), g.quantile)
        << std::hexfloat << "beta=" << g.beta << " y=" << g.y;
  }
}

TEST(BoundedPareto, ContractHolds) {
  check_distribution_contract(fd::BoundedPareto(4.0, 3.0, 2000.0));
}

TEST(BoundedPareto, TailVanishesAtBound) {
  const fd::BoundedPareto dist(4.0, 3.0, 2000.0);
  EXPECT_DOUBLE_EQ(dist.ccdf(2000.0), 0.0);
  EXPECT_DOUBLE_EQ(dist.ccdf(5000.0), 0.0);
  EXPECT_LE(dist.tail_quantile(1e-12), 2000.0);
}

TEST(BoundedPareto, MeanBelowUnboundedMean) {
  const fd::BoundedPareto bounded(4.0, 3.0, 2000.0);
  const fd::Pareto unbounded(4.0, 3.0);
  EXPECT_LT(bounded.mean(), unbounded.mean());
}

TEST(BoundedPareto, InvalidParameters) {
  EXPECT_THROW(fd::BoundedPareto(4.0, 3.0, 3.0), std::invalid_argument);
  EXPECT_THROW(fd::BoundedPareto(0.0, 3.0, 10.0), std::invalid_argument);
}

TEST(Exponential, ContractHolds) {
  check_distribution_contract(fd::Exponential::from_mean(9.6));
}

TEST(Exponential, MemorylessCcdf) {
  const auto dist = fd::Exponential::from_mean(10.0, 1.0);
  // F̄(x+d)/F̄(x) constant.
  const double r1 = dist.ccdf(5.0 + 2.0) / dist.ccdf(5.0);
  const double r2 = dist.ccdf(20.0 + 2.0) / dist.ccdf(20.0);
  EXPECT_NEAR(r1, r2, 1e-12);
}

TEST(Exponential, InvalidParameters) {
  EXPECT_THROW(fd::Exponential(0.0), std::invalid_argument);
  EXPECT_THROW((void)fd::Exponential::from_mean(0.5, 1.0), std::invalid_argument);
}

TEST(Weibull, ContractHolds) {
  check_distribution_contract(fd::Weibull::from_mean(20.0, 2.0));
}

TEST(Weibull, ShapeOneIsExponential) {
  const auto weibull = fd::Weibull::from_mean(10.0, 1.0, 1.0);
  const auto expo = fd::Exponential::from_mean(10.0, 1.0);
  for (double x : {2.0, 5.0, 20.0, 80.0}) {
    EXPECT_NEAR(weibull.ccdf(x), expo.ccdf(x), 1e-12) << x;
  }
}

TEST(Weibull, HigherShapeHasShorterTail) {
  const auto light = fd::Weibull::from_mean(20.0, 2.5);
  const auto heavy = fd::Weibull::from_mean(20.0, 0.7);
  EXPECT_LT(light.ccdf(200.0), heavy.ccdf(200.0));
}

TEST(Empirical, ContractOnSampledData) {
  auto engine = flowrank::util::make_engine(2718);
  const auto source = fd::Pareto::from_mean(9.6, 2.0);
  std::vector<double> samples(50000);
  for (auto& s : samples) s = source.sample(engine);
  const fd::Empirical empirical(samples);
  EXPECT_EQ(empirical.size(), samples.size());
  EXPECT_NEAR(empirical.mean(), source.mean(), 0.2 * source.mean());
  // Quantiles roughly match the source distribution.
  for (double y : {0.5, 0.1, 0.01}) {
    EXPECT_NEAR(empirical.tail_quantile(y), source.tail_quantile(y),
                0.25 * source.tail_quantile(y))
        << y;
  }
}

TEST(Empirical, CcdfQuantileRoundTrip) {
  std::vector<double> samples{1, 2, 3, 5, 8, 13, 21, 34};
  const fd::Empirical empirical(samples);
  for (double y : {0.9, 0.5, 0.2}) {
    const double x = empirical.tail_quantile(y);
    EXPECT_NEAR(empirical.ccdf(x), y, 0.15) << y;
  }
}

TEST(Empirical, RejectsDegenerateInput) {
  std::vector<double> one{5.0};
  EXPECT_THROW((void)fd::Empirical{std::span<const double>(one)},
               std::invalid_argument);
  std::vector<double> negatives{-1.0, -2.0, 3.0};
  EXPECT_THROW((void)fd::Empirical{std::span<const double>(negatives)},
               std::invalid_argument);
}

TEST(Discretized, PmfTelescopesToCcdf) {
  const fd::Discretized disc(std::make_unique<fd::Pareto>(3.2, 1.5));
  double acc = 0.0;
  for (std::int64_t i = disc.min_packets(); i <= 5000; ++i) acc += disc.pmf(i);
  EXPECT_NEAR(acc, 1.0 - disc.ccdf_geq(5001), 1e-10);
}

// fill_rows is pmf() and ccdf_geq() bit for bit, from below the support
// (where the pmf is 0) into the tail.
TEST(Discretized, FillRowsMatchesPointwise) {
  const fd::Discretized pmf(std::make_shared<fd::Pareto>(fd::Pareto::from_mean(9.6, 2.0)));
  const std::int64_t first = pmf.min_packets() - 2;
  std::vector<double> mass(700), tail(700);
  pmf.fill_rows(first, mass, tail);
  for (std::size_t k = 0; k < mass.size(); ++k) {
    const auto i = first + static_cast<std::int64_t>(k);
    EXPECT_EQ(mass[k], pmf.pmf(i)) << i;
    EXPECT_EQ(tail[k], pmf.ccdf_geq(i)) << i;
  }
  std::vector<double> short_tail(1);
  EXPECT_THROW(pmf.fill_rows(first, mass, short_tail), std::invalid_argument);
}

TEST(Discretized, CcdfConsistentWithSource) {
  const fd::Discretized disc(std::make_unique<fd::Pareto>(3.2, 1.5));
  for (std::int64_t i : {5, 10, 100, 1000}) {
    EXPECT_NEAR(disc.ccdf_geq(i), fd::Pareto(3.2, 1.5).ccdf(static_cast<double>(i - 1)),
                1e-12);
  }
}

TEST(Discretized, MeanMatchesSampleMean) {
  const fd::Discretized disc(std::make_unique<fd::Pareto>(3.2, 2.5));
  auto engine = flowrank::util::make_engine(99);
  flowrank::numeric::RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.add(static_cast<double>(disc.sample(engine)));
  }
  EXPECT_NEAR(disc.mean(), stats.mean(), 0.05 * stats.mean());
}

TEST(Discretized, SamplesRespectSupportMinimum) {
  const fd::Discretized disc(std::make_unique<fd::Pareto>(3.2, 1.5));
  auto engine = flowrank::util::make_engine(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(disc.sample(engine), disc.min_packets());
  }
}

TEST(Discretized, NullSourceThrows) {
  EXPECT_THROW(fd::Discretized(nullptr), std::invalid_argument);
}
