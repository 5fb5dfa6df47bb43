// plan_exact: the sampling-rate planner, the paper's inverse question
// ("what rate does a target accuracy need?"). A fixed list of queries
// over (beta, n, t, target) alternates the exact-discrete overload of
// core::plan_sampling_rate with the continuous (quadrature) one, so the
// core and numeric layers do nearly all the work and no packet is
// touched. One operation is one query; its latency is the call.
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "bench.hpp"
#include "flowrank/core/discrete_context.hpp"
#include "flowrank/core/ranking_model.hpp"
#include "flowrank/core/sampling_planner.hpp"
#include "flowrank/dist/discretized.hpp"
#include "flowrank/dist/pareto.hpp"

namespace perfbench {
namespace {

namespace fr = flowrank;

/// Sprint 5-tuple mean flow size in packets (the trace generator's preset).
constexpr double kMeanPackets = 9.6;
constexpr std::int64_t kMaxSize = 600;
constexpr double kTailTolerance = 1e-4;
/// The planner's bisection range and stopping width in log p; a probe at
/// p * exp(-kLogTolerance) lies at or below the last infeasible probe.
constexpr double kPMin = 1e-4;
constexpr double kPMaxDiscrete = 0.999;
constexpr double kPMaxContinuous = 1.0;
constexpr double kLogTolerance = 1e-4;

struct QueryShape {
  bool discrete;
  double beta;
  std::int64_t n;
  std::int64_t t;
  double target;
};

/// Discrete and continuous queries alternate.
constexpr QueryShape kShapes[] = {
    {true, 2.0, 2000, 10, 1.0},   {false, 1.5, 200000, 10, 1.0},
    {true, 2.5, 2000, 5, 1.0},    {false, 2.0, 200000, 25, 1.0},
    {true, 3.0, 1000, 10, 1.0},   {false, 2.5, 50000, 5, 0.5},
};
constexpr std::size_t kQueries = sizeof(kShapes) / sizeof(kShapes[0]);

struct Query {
  QueryShape shape;
  std::shared_ptr<const fr::dist::FlowSizeDistribution> size_dist;
  std::shared_ptr<const fr::dist::Discretized> size_pmf;  ///< discrete queries only
};

bool same(const fr::core::PlannerResult& a, const fr::core::PlannerResult& b) {
  return a.sampling_rate == b.sampling_rate && a.metric == b.metric && a.feasible == b.feasible;
}

/// The planner's bisection on log p (core/sampling_planner.cpp), for the
/// traced composition.
fr::core::PlannerResult bisect(const std::function<double(double)>& metric_at, double target,
                               double p_min, double p_max) {
  fr::core::PlannerResult result;
  const double at_max = metric_at(p_max);
  if (at_max > target) return {p_max, at_max, false};
  const double at_min = metric_at(p_min);
  if (at_min <= target) return {p_min, at_min, true};
  double lo = std::log(p_min);
  double hi = std::log(p_max);
  double hi_metric = at_max;
  for (int iter = 0; iter < 60 && hi - lo > kLogTolerance; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double m = metric_at(std::exp(mid));
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

class PlanExact final : public Workload {
 public:
  double generate(std::uint64_t seed) override {
    // The seed jitters each target by up to +-10 %: other seeds plan for
    // other accuracies at the same cost.
    std::mt19937_64 engine(seed);
    queries_.clear();
    for (const QueryShape& shape : kShapes) {
      Query query{shape, {}, {}};
      const double u = static_cast<double>(engine() >> 11) * 0x1.0p-53;
      query.shape.target *= 0.9 + 0.2 * u;
      query.size_dist = std::make_shared<fr::dist::Pareto>(
          fr::dist::Pareto::from_mean(kMeanPackets, shape.beta));
      if (shape.discrete) {
        query.size_pmf = std::make_shared<fr::dist::Discretized>(query.size_dist);
      }
      queries_.push_back(std::move(query));
    }
    results_.assign(kQueries, std::nullopt);
    return 0.0;
  }

  OpResult run(std::size_t index, std::vector<double>& latencies_ms) override {
    const std::size_t q = index % kQueries;
    const auto start = Clock::now();
    const fr::core::PlannerResult result = plan(queries_[q]);
    latencies_ms.push_back(1e3 * seconds_since(start));
    return record(q, result);
  }

  [[nodiscard]] std::size_t ops_per_round() const override { return kQueries; }

  OpResult run_traced(std::size_t index, Tracer& tracer) override {
    const std::size_t q = index % kQueries;
    const Query& query = queries_[q];
    const QueryShape& s = query.shape;
    fr::core::PlannerResult result;
    if (s.discrete) {
      auto span = tracer.span("core.plan_discrete");
      result = bisect(
          [&](double p) {
            fr::core::DiscreteContextConfig config = discrete_context(query);
            config.p = p;
            std::optional<fr::core::DiscreteModelContext> context;
            {
              auto build = tracer.span("core.context_build");
              context.emplace(config);
            }
            auto evaluate = tracer.span("core.context_evaluate");
            return context->evaluate(s.n, s.t).metric;
          },
          s.target, kPMin, kPMaxDiscrete);
    } else {
      auto span = tracer.span("core.plan_continuous");
      result = bisect(
          [&](double p) {
            fr::core::RankingModelConfig config = continuous(query);
            config.p = p;
            auto evaluate = tracer.span("core.quadrature_eval");
            return fr::core::evaluate_ranking_model(config).metric;
          },
          s.target, kPMin, kPMaxContinuous);
    }
    return record(q, result);
  }

  // The returned rate meets the target, and a probe just below it (below
  // the bisection's last infeasible probe) misses it.
  std::uint64_t final_checks() override {
    std::uint64_t failed = 0;
    for (std::size_t q = 0; q < kQueries; ++q) {
      if (!results_[q]) continue;
      const fr::core::PlannerResult& r = *results_[q];
      const double target = queries_[q].shape.target;
      const double below = r.sampling_rate * std::exp(-kLogTolerance);
      const bool ok = r.feasible && r.metric <= target && r.sampling_rate > kPMin &&
                      metric_at(queries_[q], below) > target;
      if (!ok) {
        ++failed;
        std::fprintf(stderr, "plan_exact: query %zu fails its check: p=%.6g metric=%.6g target=%.6g\n",
                     q, r.sampling_rate, r.metric, target);
      }
    }
    return failed;
  }

  void layer_metrics(const TraceTotals& totals, std::size_t /*passes*/,
                     LayerValues& out) const override {
    out["core.context_build_ms"] = 1e3 * mean_call_s(totals, "core.context_build");
    out["core.context_evaluate_us"] = 1e6 * mean_call_s(totals, "core.context_evaluate");
    out["core.quadrature_eval_ms"] = 1e3 * mean_call_s(totals, "core.quadrature_eval");
    out["core.plan_discrete_ms"] = 1e3 * mean_call_s(totals, "core.plan_discrete");
    out["core.plan_continuous_ms"] = 1e3 * mean_call_s(totals, "core.plan_continuous");
  }

 private:
  static fr::core::DiscreteModelConfig discrete(const Query& query) {
    fr::core::DiscreteModelConfig config;
    config.n = query.shape.n;
    config.t = query.shape.t;
    config.size_pmf = query.size_pmf;
    config.max_size = kMaxSize;
    config.tail_tolerance = kTailTolerance;
    config.num_threads = 1;
    return config;
  }

  static fr::core::DiscreteContextConfig discrete_context(const Query& query) {
    fr::core::DiscreteContextConfig config;
    config.size_pmf = query.size_pmf;
    config.max_size = kMaxSize;
    config.tail_tolerance = kTailTolerance;
    config.num_threads = 1;
    return config;
  }

  static fr::core::RankingModelConfig continuous(const Query& query) {
    fr::core::RankingModelConfig config;
    config.n = query.shape.n;
    config.t = query.shape.t;
    config.size_dist = query.size_dist;
    return config;
  }

  static fr::core::PlannerResult plan(const Query& query) {
    if (query.shape.discrete) {
      return fr::core::plan_sampling_rate(discrete(query), query.shape.target, kPMin,
                                          kPMaxDiscrete);
    }
    return fr::core::plan_sampling_rate(continuous(query), fr::core::PlannerGoal::kRankTopT,
                                        query.shape.target, kPMin, kPMaxContinuous);
  }

  static double metric_at(const Query& query, double p) {
    if (query.shape.discrete) {
      fr::core::DiscreteModelConfig config = discrete(query);
      config.p = p;
      return fr::core::evaluate_discrete_ranking_model(config).metric;
    }
    fr::core::RankingModelConfig config = continuous(query);
    config.p = p;
    return fr::core::evaluate_ranking_model(config).metric;
  }

  /// Every repeat of a query must return the first answer bit for bit.
  OpResult record(std::size_t q, const fr::core::PlannerResult& result) {
    OpResult op{1, true};
    if (!results_[q]) {
      results_[q] = result;
    } else {
      op.ok = same(*results_[q], result);
    }
    return op;
  }

  std::vector<Query> queries_;
  std::vector<std::optional<fr::core::PlannerResult>> results_;
};

}  // namespace

std::unique_ptr<Workload> make_plan_exact() { return std::make_unique<PlanExact>(); }

}  // namespace perfbench
