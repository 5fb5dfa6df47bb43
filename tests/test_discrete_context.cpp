// Tests for core::DiscreteModelContext — the build-once compute layer
// for the exact discrete ranking model (Eqs. 1 and 3).
//
// The golden constants below are hexfloat captures of the canonical
// stream; every rewrite must reproduce them bit for bit (the repo's
// determinism contract).
//
// Suite names start with DiscreteModel so the full-suite TSan CI job
// dynamically checks the TaskPool-parallel table build.
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "flowrank/core/discrete_context.hpp"
#include "flowrank/core/discrete_model.hpp"
#include "flowrank/core/misranking.hpp"
#include "flowrank/core/ranking_model.hpp"
#include "flowrank/core/sampling_planner.hpp"
#include "flowrank/dist/pareto.hpp"
#include "flowrank/numeric/binomial.hpp"

namespace fc = flowrank::core;
namespace fd = flowrank::dist;

namespace {

std::shared_ptr<const fd::Discretized> pareto_pmf(double mean, double beta) {
  return std::make_shared<fd::Discretized>(
      std::make_unique<fd::Pareto>(fd::Pareto::from_mean(mean, beta)));
}

fc::DiscreteContextConfig context_config(double p, std::int64_t max_size,
                                         double beta) {
  fc::DiscreteContextConfig cfg;
  cfg.p = p;
  cfg.size_pmf = pareto_pmf(9.6, beta);
  cfg.max_size = max_size;
  cfg.tail_tolerance = 1e-4;
  return cfg;
}

fc::DiscreteModelResult one_shot(std::int64_t n, std::int64_t t, double p,
                                 std::int64_t max_size, double beta,
                                 bool gaussian = false) {
  fc::DiscreteModelConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.p = p;
  cfg.size_pmf = pareto_pmf(9.6, beta);
  cfg.max_size = max_size;
  cfg.tail_tolerance = 1e-4;
  cfg.gaussian_pairwise = gaussian;
  return fc::evaluate_discrete_ranking_model(cfg);
}

}  // namespace

// Hexfloat goldens of the canonical stream: pmf recurrence, the
// interchanged Eq. (1)/(3) prefix sums, and the Eq. (3) fold. Each row
// also keeps the value of the earlier pairwise-table build (summed pair
// by pair, each pair clamped at 1), which the interchanged order must
// stay within 1e-13 of. The Gaussian-pairwise row is computed pair by
// pair in both; its second pair of columns is instead its value before
// Eq. (2) became (1/2) erfc(c r) with the in-repo erfc (2 and 1 ulp
// below the canonical pair).
TEST(DiscreteModelContext, GoldenBitIdentity) {
  const struct {
    std::int64_t n, t;
    double p;
    std::int64_t max_size;
    double beta;
    bool gaussian;
    double pbar, metric;              // canonical, bit for bit
    double table_pbar, table_metric;  // pairwise-table build, <= 1e-13
  } goldens[] = {
      {2000, 5, 0.2, 600, 2.5, false, 0x1.221ee99750614p-9, 0x1.619ebda7b6b11p+4,
       0x1.221ee99750614p-9, 0x1.619ebda7b6b11p+4},
      {2000, 10, 0.2, 600, 2.5, false, 0x1.8458acbddd32dp-8, 0x1.d8c082a9515a7p+6,
       0x1.8458acbddd32ap-8, 0x1.d8c082a9515a3p+6},
      {5000, 20, 0.2, 600, 2.5, false, 0x1.ec9336f9545adp-9, 0x1.7704087f8ce7fp+8,
       0x1.ec9336f9545adp-9, 0x1.7704087f8ce7fp+8},
      {1000, 3, 0.35, 500, 2.5, false, 0x1.4be75c72f7be5p-10, 0x1.e536fae712aep+1,
       0x1.4be75c72f7be6p-10, 0x1.e536fae712ae1p+1},
      {1500, 4, 0.25, 400, 3.0, false, 0x1.1018279a8dcd6p-8, 0x1.8de952eaa51f3p+4,
       0x1.1018279a8dcd6p-8, 0x1.8de952eaa51f3p+4},
      {1500, 4, 0.25, 500, 2.5, true, 0x1.83dbef380b29ap-10, 0x1.1b9a60facaa98p+3,
       0x1.83dbef380b298p-10, 0x1.1b9a60facaa97p+3},
  };
  for (const auto& g : goldens) {
    const auto r = one_shot(g.n, g.t, g.p, g.max_size, g.beta, g.gaussian);
    EXPECT_EQ(g.pbar, r.mean_pair_misranking)
        << "n=" << g.n << " t=" << g.t << " p=" << g.p;
    EXPECT_EQ(g.metric, r.metric) << "n=" << g.n << " t=" << g.t << " p=" << g.p;
    EXPECT_NEAR(g.table_pbar, r.mean_pair_misranking, 1e-13 * g.table_pbar);
    EXPECT_NEAR(g.table_metric, r.metric, 1e-13 * g.table_metric);
  }
}

// One context, many (n, t) cells: sweep reuse must be bit-identical to
// rebuilding from scratch for every cell.
TEST(DiscreteModelContext, SweepReuseMatchesOneShot) {
  const fc::DiscreteModelContext context(context_config(0.2, 600, 2.5));
  const std::int64_t cells[][2] = {{2000, 5}, {2000, 10}, {2000, 25}, {5000, 20}};
  for (const auto& cell : cells) {
    const auto reused = context.evaluate(cell[0], cell[1]);
    const auto fresh = one_shot(cell[0], cell[1], 0.2, 600, 2.5);
    EXPECT_EQ(fresh.mean_pair_misranking, reused.mean_pair_misranking);
    EXPECT_EQ(fresh.metric, reused.metric);
  }
}

// The determinism contract: the build returns the same bits at any
// thread count — the cached reductions and every evaluation must match
// the single-threaded build exactly.
TEST(DiscreteModelContext, ParallelBuildBitIdentical) {
  auto cfg = context_config(0.2, 600, 2.5);
  cfg.num_threads = 1;
  const fc::DiscreteModelContext baseline(cfg);
  const auto r1 = baseline.evaluate(2000, 5);
  for (std::size_t threads : {2u, 4u, 7u}) {
    cfg.num_threads = threads;
    const fc::DiscreteModelContext parallel(cfg);
    ASSERT_EQ(baseline.smaller_pair_sums().size(),
              parallel.smaller_pair_sums().size());
    EXPECT_EQ(baseline.smaller_pair_sums(), parallel.smaller_pair_sums())
        << "threads=" << threads;
    EXPECT_EQ(baseline.larger_pair_sums(), parallel.larger_pair_sums())
        << "threads=" << threads;
    const auto rt = parallel.evaluate(2000, 5);
    EXPECT_EQ(r1.mean_pair_misranking, rt.mean_pair_misranking);
    EXPECT_EQ(r1.metric, rt.metric);
  }
}

// The interchanged prefix sums against sums built pair by pair from
// misranking_exact (an independent evaluation: memoized Bin rows anchored
// in log space at their support window), at every size of the support
// and across rates from 0.001 to 0.999. Above s ~ 708/|ln(1-p)| packets
// the k = 0 seed (1-p)^s of a Bin(s, p) row underflows and the row is
// anchored at its mode instead; max_size 400 reaches that regime at
// p >= 0.9 (the first such row is s = 308 at p = 0.9). The tolerance is the
// oracle's: its lgamma-based anchors put it up to 4.0e-12 (relative) from
// the interchanged sums at max_size 400, p >= 0.5, and exactly as far
// from the earlier pair-by-pair table build, which the interchanged sums
// match within 4.5e-15. The two-task build must still be bit-identical.
TEST(DiscreteModelContext, PrefixSumsMatchPairwiseExact) {
  for (const std::int64_t max_size : {60, 400}) {
    for (double p : {0.001, 0.01, 0.2, 0.5, 0.9, 0.99, 0.999}) {
      auto cfg = context_config(p, max_size, 2.5);
      cfg.tail_tolerance = 1e-2;
      const fc::DiscreteModelContext ctx(cfg);
      const auto& a_sums = ctx.smaller_pair_sums();
      const auto& b_sums = ctx.larger_pair_sums();
      const std::int64_t lo = ctx.min_size(), hi = ctx.max_size();
      if (max_size == 400 && p >= 0.9) {
        ASSERT_GT(static_cast<double>(hi) * -std::log1p(-p), 745.0)
            << "the support must reach the underflow regime";
      }
      for (std::int64_t i = lo; i <= hi; ++i) {
        double a = 0.0;
        double b = cfg.size_pmf->pmf(i) * fc::misranking_exact(i, i, p);
        for (std::int64_t j = lo; j < i; ++j) {
          a += cfg.size_pmf->pmf(j) * fc::misranking_exact(j, i, p);
        }
        for (std::int64_t j = i + 1; j <= hi; ++j) {
          b += cfg.size_pmf->pmf(j) * fc::misranking_exact(i, j, p);
        }
        const auto r = static_cast<std::size_t>(i - lo);
        EXPECT_NEAR(a_sums[r], a, 1e-11 * a)
            << "max_size=" << max_size << " p=" << p << " i=" << i;
        EXPECT_NEAR(b_sums[r], b, 1e-11 * b)
            << "max_size=" << max_size << " p=" << p << " i=" << i;
      }
      cfg.num_threads = 4;
      const fc::DiscreteModelContext parallel(cfg);
      EXPECT_EQ(a_sums, parallel.smaller_pair_sums()) << "p=" << p;
      EXPECT_EQ(b_sums, parallel.larger_pair_sums()) << "p=" << p;
    }
  }
}

// With the underflowing rows zeroed, the metric was a sawtooth in p
// (it rose from 0.9981 to 1.0025 across p = 0.95660..0.95669, then fell
// to 0.9960): every size crossing the underflow threshold dropped out of
// the sums. The metric must decrease with p across that stretch.
TEST(DiscreteModelContext, MetricDecreasesAcrossUnderflowThreshold) {
  fc::DiscreteModelConfig cfg;
  cfg.n = 20000;
  cfg.t = 10;
  cfg.size_pmf = pareto_pmf(9.6, 2.0);
  cfg.max_size = 600;
  cfg.tail_tolerance = 1e-4;
  double previous = std::numeric_limits<double>::infinity();
  for (int step = 0; step <= 70; ++step) {
    cfg.p = 0.9566 + 1e-5 * step;
    const double metric = fc::evaluate_discrete_ranking_model(cfg).metric;
    EXPECT_LT(metric, previous) << "p=" << cfg.p;
    previous = metric;
  }
}

// The discrete model is the ground truth the continuous quadrature
// approximates; at modest scale the two must land close together.
TEST(DiscreteModelContext, AgreesWithContinuousModel) {
  fc::RankingModelConfig cont;
  cont.n = 2000;
  cont.t = 10;
  cont.p = 0.2;
  cont.size_dist = std::make_shared<fd::Pareto>(fd::Pareto::from_mean(9.6, 2.5));
  const auto continuous = fc::evaluate_ranking_model(cont);
  const auto discrete = one_shot(2000, 10, 0.2, 600, 2.5);
  ASSERT_GT(continuous.mean_pair_misranking, 0.0);
  const double ratio =
      discrete.mean_pair_misranking / continuous.mean_pair_misranking;
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
  // Same pair-count convention, so metrics agree to the same factor.
  const double pair_count = 0.5 * (2.0 * 2000 - 10 - 1) * 10;
  EXPECT_DOUBLE_EQ(discrete.metric,
                   discrete.mean_pair_misranking * pair_count);
}

// Discrete planner overload: the search against the exact model.
TEST(DiscreteModelPlanner, FindsFeasibleRate) {
  fc::DiscreteModelConfig cfg;
  cfg.n = 2000;
  cfg.t = 10;
  cfg.size_pmf = pareto_pmf(9.6, 2.5);
  cfg.max_size = 400;
  cfg.tail_tolerance = 1e-3;
  const auto plan = fc::plan_sampling_rate(cfg, 1.0, 1e-4, 0.999);
  ASSERT_TRUE(plan.feasible);
  EXPECT_GT(plan.sampling_rate, 1e-4);
  EXPECT_LT(plan.sampling_rate, 0.999);
  EXPECT_LE(plan.metric, 1.0 + 1e-9);
  // The returned rate really achieves the target under the exact model.
  cfg.p = plan.sampling_rate;
  cfg.t = 10;
  const auto at_rate = fc::evaluate_discrete_ranking_model(cfg);
  EXPECT_LE(at_rate.metric, 1.0 + 1e-6);
}

TEST(DiscreteModelContext, ValidationErrors) {
  auto cfg = context_config(0.2, 600, 2.5);
  {
    auto bad = cfg;
    bad.size_pmf = nullptr;
    EXPECT_THROW(fc::DiscreteModelContext{bad}, std::invalid_argument);
  }
  for (double p : {0.0, 1.0, -0.1, 1.5}) {
    auto bad = cfg;
    bad.p = p;
    EXPECT_THROW(fc::DiscreteModelContext{bad}, std::invalid_argument);
  }
  {
    // A heavy Pareto tail above a tiny support cap exceeds the tolerance.
    auto bad = cfg;
    bad.max_size = 20;
    bad.tail_tolerance = 1e-6;
    EXPECT_THROW(fc::DiscreteModelContext{bad}, std::invalid_argument);
  }
  const fc::DiscreteModelContext context(cfg);
  EXPECT_THROW((void)context.evaluate(2000, 0), std::invalid_argument);
  EXPECT_THROW((void)context.evaluate(2000, 2001), std::invalid_argument);
  EXPECT_NO_THROW((void)context.evaluate(2000, 2000));
}

// The fold with once-per-query weights is the per-probe fold bit for bit:
// against the fold written out here (two binomial cdfs per size, summed
// in the context's order) and against evaluate(n, t), with the weights
// made from a context at another rate, as the planner makes them.
TEST(DiscreteModelContext, TopWeightsFoldMatchesPerProbeFold) {
  for (const double beta : {2.0, 2.5, 3.0}) {
    const auto pmf = pareto_pmf(9.6, beta);
    auto cfg = context_config(0.5, 600, beta);
    cfg.size_pmf = pmf;
    const fc::DiscreteModelContext first(cfg);
    for (const auto& [n, t] : {std::pair<std::int64_t, std::int64_t>{2000, 10},
                               {2000, 5}, {1000, 10}, {20000, 1}}) {
      const fc::DiscreteTopWeights weights = first.top_weights(n, t);
      EXPECT_EQ(weights.n(), n);
      EXPECT_EQ(weights.t(), t);
      for (const double p : {1e-4, 0.3, 0.996}) {
        SCOPED_TRACE(testing::Message() << "beta=" << beta << " n=" << n << " t=" << t
                                        << " p=" << p);
        cfg.p = p;
        const fc::DiscreteModelContext context(cfg);
        const auto& a_sum = context.smaller_pair_sums();
        const auto& b_sum = context.larger_pair_sums();
        double pbar = 0.0;
        for (std::int64_t i = context.min_size(); i <= context.max_size(); ++i) {
          const double mass = pmf->pmf(i);
          if (mass <= 0.0) continue;
          const double tail = pmf->ccdf_geq(i);
          const auto r = static_cast<std::size_t>(i - context.min_size());
          pbar += mass * (flowrank::numeric::binomial_cdf(t - 1, n - 2, tail) * a_sum[r] +
                          flowrank::numeric::binomial_cdf(t - 2, n - 2, tail) * b_sum[r]);
        }
        pbar *= static_cast<double>(n) / static_cast<double>(t);
        const fc::DiscreteModelResult once = context.evaluate(weights);
        EXPECT_EQ(once.mean_pair_misranking, pbar);
        const fc::DiscreteModelResult per_probe = context.evaluate(n, t);
        EXPECT_EQ(once.mean_pair_misranking, per_probe.mean_pair_misranking);
        EXPECT_EQ(once.metric, per_probe.metric);
      }
    }
  }
}

// Weights are tied to the pmf object and support cap they were made for.
TEST(DiscreteModelContext, TopWeightsRefuseAnotherContext) {
  const fc::DiscreteModelContext context(context_config(0.2, 600, 2.5));
  const auto weights = context.top_weights(2000, 10);
  EXPECT_NO_THROW((void)context.evaluate(weights));
  const fc::DiscreteModelContext other_pmf(context_config(0.2, 600, 2.5));
  EXPECT_THROW((void)other_pmf.evaluate(weights), std::invalid_argument);
  auto cfg = context_config(0.2, 600, 2.5);
  const fc::DiscreteModelContext base(cfg);
  cfg.max_size = 500;
  const fc::DiscreteModelContext other_cap(cfg);
  EXPECT_THROW((void)other_cap.evaluate(base.top_weights(2000, 10)), std::invalid_argument);
  EXPECT_THROW((void)context.top_weights(2000, 0), std::invalid_argument);
}
