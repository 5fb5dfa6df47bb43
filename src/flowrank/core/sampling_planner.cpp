#include "flowrank/core/sampling_planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "flowrank/core/discrete_context.hpp"
#include "flowrank/numeric/roots.hpp"

namespace flowrank::core {

namespace {

/// The bisection's stopping width in log p, and its step cap.
constexpr double kLogWidth = 1e-4;
constexpr int kMaxSteps = 60;
/// Cap on the interpolation phase's Brent iterations: past it the
/// bisection simply evaluates more midpoints.
constexpr int kMaxBrentSteps = 30;

double logit(double p) { return std::log(p) - std::log1p(-p); }
double logistic(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Every metric evaluation of one query, memoized by rate, and the bracket
/// they imply under the monotonicity the bisection assumes: `below` is the
/// largest rate evaluated infeasible, `above` the smallest evaluated
/// feasible.
class Evaluations {
 public:
  Evaluations(const std::function<double(double)>& metric_at, double target)
      : metric_at_(metric_at), target_(target) {}

  double operator()(double p) {
    for (const auto& [rate, metric] : seen_) {
      if (rate == p) return metric;
    }
    const double metric = metric_at_(p);
    seen_.emplace_back(p, metric);
    if (metric <= target_) {
      above_ = std::min(above_, p);
    } else {
      below_ = std::max(below_, p);
    }
    return metric;
  }

  [[nodiscard]] double below() const noexcept { return below_; }
  [[nodiscard]] double above() const noexcept { return above_; }
  [[nodiscard]] int count() const noexcept { return static_cast<int>(seen_.size()); }

 private:
  const std::function<double(double)>& metric_at_;
  double target_;
  std::vector<std::pair<double, double>> seen_;
  double below_ = 0.0;
  double above_ = std::numeric_limits<double>::infinity();
};

/// The interpolation phase: Brent's method on g = log metric - log target
/// over x = logit p narrows [below, above] towards the crossing, so the
/// bisection that follows finds most of its midpoints already decided.
/// The metrics span decades and the answers often sit near p = 1, where
/// logit p stretches the axis: log metric is close to linear in logit p
/// at both ends. Every evaluation lies inside the current bracket.
void interpolate(Evaluations& evaluate, double target, double p_min, double p_max) {
  // A feasible end without a finite log metric (p = 1, or a metric of
  // exactly 0) cannot anchor an interpolation. The lower end of the
  // bisection's top cell is then evaluated instead: if it misses the
  // target, every midpoint does and the answer is p_max; if it has no
  // finite log metric either, the bisection runs on its own.
  const auto anchored = [&] {
    return evaluate.above() < 1.0 && evaluate(evaluate.above()) > 0.0;  // memo hit
  };
  if (!anchored()) {
    double top = std::log(p_min);
    const double hi = std::log(p_max);
    for (int iter = 0; iter < kMaxSteps && hi - top > kLogWidth; ++iter) {
      top = 0.5 * (top + hi);
    }
    (void)evaluate(std::exp(top));
    if (!anchored()) return;
  }
  const double p_lo = evaluate.below();
  const double p_hi = evaluate.above();
  const double x_lo = logit(p_lo);
  const double x_hi = logit(p_hi);
  const double log_target = std::log(target);
  (void)numeric::brent(
      [&](double x) {
        // The bracket ends map back to their exact evaluated rates.
        const double p = x == x_lo ? p_lo : x == x_hi ? p_hi : logistic(x);
        const double metric = evaluate(p);
        // Kept finite so Brent's arithmetic is: a metric of 0 reads as far
        // feasible, an infinite or NaN one (infeasible to the bisection)
        // as far infeasible.
        if (!(metric > 0.0 && metric < std::numeric_limits<double>::infinity())) {
          return metric <= target ? -1e3 : 1e3;
        }
        return std::log(metric) - log_target;
      },
      x_lo, x_hi, kLogWidth, kMaxBrentSteps);
}

}  // namespace

PlannerResult plan_sampling_rate(const std::function<double(double)>& metric_at,
                                 double target, double p_min, double p_max) {
  if (!(target > 0.0)) {
    throw std::invalid_argument("plan_sampling_rate: target must be > 0");
  }
  if (!(p_min > 0.0 && p_min < p_max && p_max <= 1.0)) {
    throw std::invalid_argument("plan_sampling_rate: need 0 < p_min < p_max <= 1");
  }

  Evaluations evaluate(metric_at, target);
  const double at_max = evaluate(p_max);
  if (at_max > target) return {p_max, at_max, false, evaluate.count()};
  const double at_min = evaluate(p_min);
  if (at_min <= target) return {p_min, at_min, true, evaluate.count()};

  interpolate(evaluate, target, p_min, p_max);

  // The bisection on log p that defines the answer. A midpoint outside
  // the evaluated bracket is decided without a call; only midpoints inside
  // it are evaluated. Should the rate it returns then evaluate infeasible
  // after all (the metric is not monotone there), the same loop runs again
  // without shortcuts, which is the plain bisection over the memo.
  double hi = std::log(p_max);
  double hi_metric = at_max;
  for (bool shortcuts = true;; shortcuts = false) {
    double lo = std::log(p_min);
    hi = std::log(p_max);
    hi_metric = at_max;
    bool hi_evaluated = true;
    for (int iter = 0; iter < kMaxSteps && hi - lo > kLogWidth; ++iter) {
      const double mid = 0.5 * (lo + hi);
      const double rate = std::exp(mid);
      if (shortcuts && rate <= evaluate.below()) {
        lo = mid;
      } else if (shortcuts && rate >= evaluate.above()) {
        hi = mid;
        hi_evaluated = false;
      } else if (const double m = evaluate(rate); m <= target) {
        hi = mid;
        hi_metric = m;
        hi_evaluated = true;
      } else {
        lo = mid;
      }
    }
    if (!hi_evaluated) hi_metric = evaluate(std::exp(hi));
    if (hi_metric <= target) break;
  }
  return {std::exp(hi), hi_metric, true, evaluate.count()};
}

PlannerResult plan_sampling_rate(RankingModelConfig config, PlannerGoal goal,
                                 double target, double p_min, double p_max) {
  if (goal == PlannerGoal::kRankTopT) {
    const RankingModelContext context(config);
    return plan_sampling_rate([&](double p) { return context.evaluate(p).metric; },
                              target, p_min, p_max);
  }
  return plan_sampling_rate(
      [&](double p) {
        config.p = p;
        return evaluate_detection_model(config).metric;
      },
      target, p_min, p_max);
}

PlannerResult plan_sampling_rate(DiscreteModelConfig config, double target,
                                 double p_min, double p_max) {
  if (!(p_max < 1.0)) {
    throw std::invalid_argument(
        "plan_sampling_rate: the discrete model needs p_max < 1");
  }
  // p is part of the context key, so each evaluation builds a context;
  // the fold's top-t weights do not depend on p and are made once.
  std::optional<DiscreteTopWeights> weights;
  return plan_sampling_rate(
      [&](double p) {
        config.p = p;
        const DiscreteModelContext context(discrete_context_config(config));
        if (!weights) weights = context.top_weights(config.n, config.t);
        return context.evaluate(*weights).metric;
      },
      target, p_min, p_max);
}

}  // namespace flowrank::core
