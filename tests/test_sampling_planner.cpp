// Tests for core::plan_sampling_rate's search: an interpolation phase
// (Brent's method over logit p) followed by the bisection on log p that
// defines the answer, evaluating only the midpoints its bracket leaves
// open. The oracle is a verbatim copy of the plain bisection the planner
// ran before; the search must return its result bit for bit.
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/core/discrete_model.hpp"
#include "flowrank/core/ranking_model.hpp"
#include "flowrank/core/sampling_planner.hpp"
#include "flowrank/dist/discretized.hpp"
#include "flowrank/dist/pareto.hpp"

namespace fc = flowrank::core;
namespace fd = flowrank::dist;

namespace {

/// The planner's former body, kept verbatim as the oracle (plus a call
/// count).
fc::PlannerResult bisect_sampling_rate(const std::function<double(double)>& metric_at,
                                       double target, double p_min, double p_max) {
  fc::PlannerResult result;
  const double at_max = metric_at(p_max);
  result.evaluations = 1;
  if (at_max > target) {
    result.sampling_rate = p_max;
    result.metric = at_max;
    result.feasible = false;
    return result;
  }
  const double at_min = metric_at(p_min);
  result.evaluations = 2;
  if (at_min <= target) {
    result.sampling_rate = p_min;
    result.metric = at_min;
    result.feasible = true;
    return result;
  }

  double lo = std::log(p_min);  // metric > target here
  double hi = std::log(p_max);  // metric <= target here
  double hi_metric = at_max;
  for (int iter = 0; iter < 60 && hi - lo > 1e-4; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double m = metric_at(std::exp(mid));
    ++result.evaluations;
    if (m <= target) {
      hi = mid;
      hi_metric = m;
    } else {
      lo = mid;
    }
  }
  result.sampling_rate = std::exp(hi);
  result.metric = hi_metric;
  result.feasible = true;
  return result;
}

/// A metric that records every rate it is evaluated at.
struct Recorder {
  std::function<double(double)> metric;
  std::vector<double> rates;
  std::function<double(double)> fn() {
    return [this](double p) {
      rates.push_back(p);
      return metric(p);
    };
  }
};

/// The certificate: the returned rate was evaluated feasible, and a rate
/// in [p e^-1e-4, p) was evaluated infeasible.
void expect_certified(const fc::PlannerResult& plan, const Recorder& rec,
                      double target) {
  ASSERT_TRUE(plan.feasible);
  bool feasible_at_p = false;
  bool infeasible_below = false;
  const double floor = plan.sampling_rate * std::exp(-1e-4) * (1.0 - 1e-12);
  for (double r : rec.rates) {
    const double m = rec.metric(r);
    if (r == plan.sampling_rate && m <= target) feasible_at_p = true;
    if (r < plan.sampling_rate && r >= floor && !(m <= target)) infeasible_below = true;
  }
  EXPECT_TRUE(feasible_at_p) << "p = " << plan.sampling_rate;
  EXPECT_TRUE(infeasible_below) << "p = " << plan.sampling_rate;
}

void expect_same(const fc::PlannerResult& oracle, const fc::PlannerResult& plan) {
  EXPECT_EQ(oracle.sampling_rate, plan.sampling_rate);
  EXPECT_EQ(oracle.metric, plan.metric);
  EXPECT_EQ(oracle.feasible, plan.feasible);
  EXPECT_LE(plan.evaluations, oracle.evaluations + 1);
}

std::shared_ptr<const fd::Discretized> pareto_pmf(double beta) {
  return std::make_shared<fd::Discretized>(
      std::make_unique<fd::Pareto>(fd::Pareto::from_mean(9.6, beta)));
}

/// Memoizes `metric` by rate, so the oracle, the recorded search and the
/// certificate pay once per distinct rate. The planner's own evaluation
/// count is unaffected: it counts its calls, not the model's work.
std::function<double(double)> cached(std::function<double(double)> metric) {
  auto memo = std::make_shared<std::map<double, double>>();
  return [memo, metric = std::move(metric)](double p) {
    const auto it = memo->find(p);
    if (it != memo->end()) return it->second;
    return memo->emplace(p, metric(p)).first->second;
  };
}

/// Checks `plan`, a public overload's result for one model query, against
/// the oracle, and re-runs the query through the generic search with a
/// recorder for the certificate. Returns the planner's evaluation count.
int check_query(const std::function<double(double)>& model,
                const fc::PlannerResult& plan, double target, double p_min,
                double p_max) {
  const auto metric = cached(model);
  const auto oracle = bisect_sampling_rate(metric, target, p_min, p_max);
  expect_same(oracle, plan);
  Recorder rec{metric, {}};
  const auto generic = fc::plan_sampling_rate(rec.fn(), target, p_min, p_max);
  EXPECT_EQ(plan.sampling_rate, generic.sampling_rate);
  EXPECT_EQ(plan.evaluations, generic.evaluations);
  EXPECT_EQ(static_cast<std::size_t>(generic.evaluations), rec.rates.size());
  if (generic.feasible && generic.evaluations > 2) expect_certified(generic, rec, target);
  return plan.evaluations;
}

}  // namespace

TEST(PlannerSearch, ContinuousMatchesBisectionOverGrid) {
  int evaluations = 0, queries = 0;
  for (double beta : {1.2, 2.0, 3.0}) {
    for (std::int64_t n : {2000, 500000}) {
      for (std::int64_t t : {1, 10, 50}) {
        for (double target : {0.01, 1.0, 30.0}) {
          SCOPED_TRACE(testing::Message() << "beta=" << beta << " n=" << n
                                          << " t=" << t << " target=" << target);
          fc::RankingModelConfig cfg;
          cfg.n = n;
          cfg.t = t;
          cfg.size_dist = std::make_shared<fd::Pareto>(fd::Pareto::from_mean(9.6, beta));
          // A coarse quadrature keeps the grid cheap; the search sees a
          // model metric all the same.
          cfg.quad.outer_panels = 6;
          cfg.quad.inner_panels = 6;
          const auto plan =
              fc::plan_sampling_rate(cfg, fc::PlannerGoal::kRankTopT, target, 1e-4, 1.0);
          evaluations += check_query(
              [cfg](double p) mutable {
                cfg.p = p;
                return fc::evaluate_ranking_model(cfg).metric;
              },
              plan, target, 1e-4, 1.0);
          ++queries;
        }
      }
    }
  }
  // The plain bisection spends 19 evaluations on every query that is not
  // an early return.
  EXPECT_LT(evaluations, 11 * queries);
}

TEST(PlannerSearch, DiscreteMatchesBisectionOverGrid) {
  int evaluations = 0, queries = 0;
  for (double beta : {2.0, 3.0}) {
    const auto pmf = pareto_pmf(beta);
    for (std::int64_t n : {1000, 20000}) {
      for (std::int64_t t : {1, 10}) {
        for (double target : {0.01, 1.0, 30.0}) {
          SCOPED_TRACE(testing::Message() << "beta=" << beta << " n=" << n
                                          << " t=" << t << " target=" << target);
          fc::DiscreteModelConfig cfg;
          cfg.n = n;
          cfg.t = t;
          cfg.size_pmf = pmf;
          cfg.max_size = 300;
          cfg.tail_tolerance = 1e-3;
          const auto plan = fc::plan_sampling_rate(cfg, target, 1e-4, 0.999);
          evaluations += check_query(
              [cfg](double p) mutable {
                cfg.p = p;
                return fc::evaluate_discrete_ranking_model(cfg).metric;
              },
              plan, target, 1e-4, 0.999);
          ++queries;
        }
      }
    }
  }
  EXPECT_LT(evaluations, 11 * queries);
}

// The early returns cost one evaluation (p_max misses the target) and two
// (p_min already meets it); one query per overload is pinned in full.
TEST(PlannerSearch, PinnedEvaluationCounts) {
  fc::RankingModelConfig cont;
  cont.n = 200000;
  cont.t = 10;
  cont.size_dist = std::make_shared<fd::Pareto>(fd::Pareto::from_mean(9.6, 1.5));
  const auto missed = fc::plan_sampling_rate(cont, fc::PlannerGoal::kRankTopT, 1e-9,
                                             1e-4, 0.02);
  EXPECT_FALSE(missed.feasible);
  EXPECT_EQ(missed.evaluations, 1);
  const auto met = fc::plan_sampling_rate(cont, fc::PlannerGoal::kRankTopT, 1e9);
  EXPECT_TRUE(met.feasible);
  EXPECT_EQ(met.sampling_rate, 1e-4);
  EXPECT_EQ(met.evaluations, 2);

  const auto cont_plan = fc::plan_sampling_rate(cont, fc::PlannerGoal::kRankTopT, 1.0);
  EXPECT_TRUE(cont_plan.feasible);
  EXPECT_EQ(cont_plan.evaluations, 10);

  fc::DiscreteModelConfig disc;
  disc.n = 2000;
  disc.t = 10;
  disc.size_pmf = pareto_pmf(2.5);
  disc.max_size = 600;
  disc.tail_tolerance = 1e-4;
  const auto disc_plan = fc::plan_sampling_rate(disc, 1.0, 1e-4, 0.999);
  EXPECT_TRUE(disc_plan.feasible);
  EXPECT_EQ(disc_plan.evaluations, 8);
}

// A smooth synthetic metric: the search agrees with the bisection and
// certifies its answer on every target, including ones near both ends.
TEST(PlannerSearch, SyntheticMetricsMatchBisection) {
  const std::function<double(double)> metrics[] = {
      [](double p) { return std::pow(0.3 / p, 2.0); },
      [](double p) { return 1e3 * std::sqrt(1.0 - p) / p; },
      [](double p) { return std::exp(-20.0 * p); },
  };
  for (const auto& metric : metrics) {
    for (double target : {1e-6, 1e-3, 0.5, 1.0, 3.0, 1e4, 1e9}) {
      for (double p_max : {0.5, 0.999, 1.0}) {
        SCOPED_TRACE(testing::Message() << "target=" << target << " p_max=" << p_max);
        Recorder rec{metric, {}};
        const auto plan = fc::plan_sampling_rate(rec.fn(), target, 1e-4, p_max);
        expect_same(bisect_sampling_rate(metric, target, 1e-4, p_max), plan);
        if (plan.feasible && plan.evaluations > 2) expect_certified(plan, rec, target);
      }
    }
  }
}

// A metric that is 0 on a wide feasible region (the continuous model at
// p = 1, say) gives the interpolation no finite anchor at first; the
// search must still land on the bisection's answer.
TEST(PlannerSearch, ZeroMetricRegion) {
  const std::function<double(double)> metric = [](double p) {
    return p >= 0.6 ? 0.0 : std::pow(0.5 / p, 3.0);
  };
  for (double target : {0.5, 1.0, 2.0}) {
    Recorder rec{metric, {}};
    const auto plan = fc::plan_sampling_rate(rec.fn(), target, 1e-4, 1.0);
    expect_same(bisect_sampling_rate(metric, target, 1e-4, 1.0), plan);
    expect_certified(plan, rec, target);
  }
}

// If the rate the shortcut loop settles on evaluates infeasible (a spike
// the bracket could not see), the loop reruns without shortcuts and
// returns the plain bisection's answer.
TEST(PlannerSearch, ContradictionFallsBackToFullBisection) {
  const std::function<double(double)> smooth = [](double p) {
    return std::pow(0.3 / p, 2.0);
  };
  const auto first = fc::plan_sampling_rate(smooth, 1.0, 1e-4, 1.0);
  const double spike = first.sampling_rate;
  const std::function<double(double)> spiked = [&](double p) {
    return p == spike ? std::numeric_limits<double>::infinity() : smooth(p);
  };
  Recorder rec{spiked, {}};
  const auto plan = fc::plan_sampling_rate(rec.fn(), 1.0, 1e-4, 1.0);
  const auto oracle = bisect_sampling_rate(spiked, 1.0, 1e-4, 1.0);
  EXPECT_EQ(oracle.sampling_rate, plan.sampling_rate);
  EXPECT_EQ(oracle.metric, plan.metric);
  EXPECT_NE(plan.sampling_rate, spike);
  // The spike was evaluated, and the rerun went on past it.
  ASSERT_FALSE(rec.rates.empty());
  EXPECT_NE(rec.rates.back(), spike);
  bool saw_spike = false;
  for (double r : rec.rates) saw_spike = saw_spike || r == spike;
  EXPECT_TRUE(saw_spike);
  expect_certified(plan, rec, 1.0);
}

TEST(PlannerSearch, InvalidArguments) {
  const std::function<double(double)> metric = [](double p) { return 1.0 / p; };
  EXPECT_THROW((void)fc::plan_sampling_rate(metric, 0.0, 1e-4, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)fc::plan_sampling_rate(metric, 1.0, 0.5, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)fc::plan_sampling_rate(metric, 1.0, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)fc::plan_sampling_rate(metric, 1.0, 1e-4, 1.5),
               std::invalid_argument);
}
