// Tests for core::RankingModelContext — the p-independent quadrature grid
// of the continuous ranking model (Eq. 3).
//
// The oracle is reference_quadrature() below: the one-shot evaluation the
// library ran before the grid was cached, each size quantile computed
// where the integrand needs it. Caching the sizes (under Eq. (2), the
// pairs' spreads, with one batch of erfc values per inner integral)
// must not change a bit.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "flowrank/core/misranking.hpp"
#include "flowrank/core/model_common.hpp"
#include "flowrank/core/ranking_model.hpp"
#include "flowrank/dist/pareto.hpp"
#include "flowrank/numeric/quadrature.hpp"

namespace fc = flowrank::core;
namespace fd = flowrank::dist;

namespace {

/// The fused quadrature: Eq. (3) with every size quantile and pairwise
/// probability evaluated inside the integrands.
fc::RankingModelResult reference_quadrature(const fc::RankingModelConfig& config) {
  const auto& dist = *config.size_dist;
  const auto n = config.n;
  const auto t = config.t;
  const double p = config.p;
  const auto& quad = config.quad;
  const auto size_at = [&dist](double y) { return dist.tail_quantile(y); };
  const auto pm = [&config](double a, double b, double rate) {
    return config.pairwise == fc::PairwiseModel::kGaussian
               ? fc::misranking_gaussian(a, b, rate)
               : fc::misranking_hybrid(a, b, rate);
  };
  const auto integrand = [&](double y) {
    const double x = size_at(y);
    const double pt_t_nm1 = fc::top_probability(y, t, n - 1, quad);
    const double pt_tm1_nm1 = fc::top_probability(y, t - 1, n - 1, quad);
    if (pt_t_nm1 <= 0.0 && pt_tm1_nm1 <= 0.0) return 0.0;
    double a_term = 0.0;
    if (pt_t_nm1 > 0.0) {
      const auto pm_smaller = [&](double v) { return pm(size_at(v), x, p); };
      a_term = pt_t_nm1 * fc::integrate_toward(pm_smaller, y, 1.0, true, quad);
    }
    double b_term = 0.0;
    if (config.counting == fc::PairCounting::kPaper && t >= 2 && pt_tm1_nm1 > 0.0 &&
        y > 0.0) {
      const auto pm_larger = [&](double v) { return pm(x, size_at(v), p); };
      b_term = pt_tm1_nm1 * fc::integrate_toward(pm_larger, 0.0, y, false, quad);
    }
    return a_term + b_term;
  };
  const double z_max = fc::outer_z_max(t, quad);
  const double y_max = std::min(1.0, z_max / static_cast<double>(n));
  const double panel_width = y_max / quad.outer_panels;
  double outer = 0.0;
  for (int i = 0; i < quad.outer_panels; ++i) {
    const double lo = panel_width * i;
    const double hi = i + 1 == quad.outer_panels ? y_max : panel_width * (i + 1);
    outer += flowrank::numeric::integrate_gl(integrand, lo, hi, quad.outer_order);
  }
  fc::RankingModelResult result;
  result.mean_pair_misranking = outer * static_cast<double>(n) / static_cast<double>(t);
  result.pair_count = 0.5 * static_cast<double>(2 * n - t - 1) * static_cast<double>(t);
  result.metric = result.pair_count * result.mean_pair_misranking;
  return result;
}

fc::RankingModelConfig config_for(std::int64_t n, std::int64_t t,
                                  fc::PairwiseModel pairwise,
                                  fc::PairCounting counting) {
  fc::RankingModelConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.size_dist = std::make_shared<fd::Pareto>(fd::Pareto::from_mean(9.6, 2.0));
  cfg.pairwise = pairwise;
  cfg.counting = counting;
  // A coarser grid than the default keeps the 32-configuration sweep
  // quick; every code path (sliver, log panels, both inner integrals,
  // both top-probability branches) is still taken.
  cfg.quad.outer_panels = 6;
  cfg.quad.outer_order = 8;
  cfg.quad.inner_panels = 8;
  cfg.quad.inner_order = 6;
  return cfg;
}

void expect_same_bits(const fc::RankingModelResult& want,
                      const fc::RankingModelResult& got) {
  EXPECT_EQ(want.mean_pair_misranking, got.mean_pair_misranking);
  EXPECT_EQ(want.metric, got.metric);
  EXPECT_EQ(want.pair_count, got.pair_count);
}

constexpr double kRates[] = {1e-4, 0.01, 0.5, 0.99, 1.0};

}  // namespace

// Both pairwise models, both pair countings, t = 1 (no B integral) and
// t = 25, and n below and above poisson_threshold (exact and Poisson
// top-t probabilities), each at five rates from one context.
TEST(RankingModelContext, MatchesFusedQuadratureBitForBit) {
  for (const auto pairwise : {fc::PairwiseModel::kGaussian, fc::PairwiseModel::kHybrid}) {
    for (const auto counting : {fc::PairCounting::kPaper, fc::PairCounting::kUnordered}) {
      for (const std::int64_t t : {1, 25}) {
        for (const std::int64_t n : {20000, 200000}) {
          auto cfg = config_for(n, t, pairwise, counting);
          ASSERT_EQ(n < cfg.quad.poisson_threshold, n == 20000);
          const fc::RankingModelContext context(cfg);
          for (const double p : kRates) {
            cfg.p = p;
            SCOPED_TRACE(testing::Message()
                         << "pairwise=" << static_cast<int>(pairwise)
                         << " counting=" << static_cast<int>(counting) << " t=" << t
                         << " n=" << n << " p=" << p);
            expect_same_bits(reference_quadrature(cfg), context.evaluate(p));
          }
        }
      }
    }
  }
}

// The default quadrature options too, on the paper's computational path.
TEST(RankingModelContext, MatchesFusedQuadratureAtDefaultOptions) {
  fc::RankingModelConfig cfg;
  cfg.n = 200000;
  cfg.t = 10;
  cfg.size_dist = std::make_shared<fd::Pareto>(fd::Pareto::from_mean(9.6, 1.5));
  const fc::RankingModelContext context(cfg);
  for (const double p : {0.003, 0.2}) {
    cfg.p = p;
    expect_same_bits(reference_quadrature(cfg), context.evaluate(p));
  }
}

// One context evaluated at several rates, in any order, equals fresh
// one-shot evaluate_ranking_model calls.
TEST(RankingModelContext, ReuseMatchesOneShot) {
  auto cfg = config_for(50000, 10, fc::PairwiseModel::kGaussian, fc::PairCounting::kPaper);
  const fc::RankingModelContext context(cfg);
  for (const double p : {0.5, 0.01, 1.0, 0.01, 1e-4}) {
    cfg.p = p;
    expect_same_bits(fc::evaluate_ranking_model(cfg), context.evaluate(p));
  }
}

TEST(RankingModelContext, ValidationErrors) {
  auto cfg = config_for(1000, 10, fc::PairwiseModel::kGaussian, fc::PairCounting::kPaper);
  {
    auto bad = cfg;
    bad.size_dist = nullptr;
    EXPECT_THROW(fc::RankingModelContext{bad}, std::invalid_argument);
  }
  for (const std::int64_t t : {0, 1001}) {
    auto bad = cfg;
    bad.t = t;
    EXPECT_THROW(fc::RankingModelContext{bad}, std::invalid_argument);
  }
  const fc::RankingModelContext context(cfg);
  for (const double p : {0.0, -0.1, 1.5}) {
    EXPECT_THROW((void)context.evaluate(p), std::invalid_argument);
  }
  EXPECT_NO_THROW((void)context.evaluate(1.0));
}
