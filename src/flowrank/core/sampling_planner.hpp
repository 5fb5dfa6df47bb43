// Inverse problem: given a traffic mix and an accuracy target, what is the
// minimum sampling rate? This operationalizes the paper's "given a desired
// accuracy, we find the required minimum sampling rate" perspective and is
// what the sampling_rate_planner example exposes.
#pragma once

#include <functional>

#include "flowrank/core/detection_model.hpp"
#include "flowrank/core/discrete_model.hpp"
#include "flowrank/core/ranking_model.hpp"

namespace flowrank::core {

/// Which accuracy goal the planner inverts.
enum class PlannerGoal {
  kRankTopT,    ///< ranking metric (order within the list matters)
  kDetectTopT,  ///< detection metric (set membership only)
};

/// Planner output.
struct PlannerResult {
  double sampling_rate = 0.0;  ///< minimal p meeting the target
  double metric = 0.0;         ///< achieved metric at that p
  bool feasible = false;       ///< false when even p=pmax misses the target
  int evaluations = 0;         ///< metric evaluations the query made
};

/// Finds the minimal sampling rate p in [p_min, p_max] at which the
/// decreasing metric `metric_at(p)` is <= `target`.
///
/// The answer is defined by a bisection on log p: p_max with
/// feasible = false when p_max misses the target; p_min when p_min meets
/// it; otherwise the upper end of the log-p cell, at most 1e-4 wide (or
/// after 60 halvings), that the bisection's midpoints close in on. That
/// answer is returned bit for bit, in fewer evaluations:
///  1. Brent's method on log metric - log target over logit p narrows
///     the bracket of evaluated rates around the crossing. (The answers
///     often sit near p = 1, where logit p stretches the axis, and log
///     metric is close to linear in logit p at both ends.) When p_max is
///     1 or its metric is 0, the lower end of the bisection's top cell
///     is evaluated first to give the bracket a finite feasible end.
///  2. The bisection then runs, evaluating only the midpoints inside the
///     bracket: a midpoint at or below the largest rate evaluated
///     infeasible is infeasible, one at or above the smallest rate
///     evaluated feasible is feasible — the monotonicity the bisection
///     assumes. The metric at the returned rate is evaluated last if no
///     earlier call produced it.
/// Every evaluation is memoized by rate.
///
/// Certificate: a feasible result's `sampling_rate` was evaluated
/// feasible, and some rate in [p e^-1e-4, p) was evaluated infeasible.
/// If the returned rate evaluates infeasible after all (the metric is
/// not monotone there), the bisection reruns over the memo without
/// shortcuts.
///
/// `evaluations` counts the calls: 1 and 2 for the early returns, and
/// 7-11 (8.6 on average) on perfbench plan_exact's six model queries,
/// where the plain bisection made 19. Throws std::invalid_argument
/// unless target > 0 and 0 < p_min < p_max <= 1.
[[nodiscard]] PlannerResult plan_sampling_rate(
    const std::function<double(double)>& metric_at, double target, double p_min,
    double p_max);

/// The continuous ranking (Eq. 3 quadrature) or detection model as the
/// metric of the search above. The ranking goal builds one
/// RankingModelContext per query, so each evaluation pays only for the
/// pairwise model at its rate. `config.p` is ignored.
[[nodiscard]] PlannerResult plan_sampling_rate(RankingModelConfig config,
                                               PlannerGoal goal, double target = 1.0,
                                               double p_min = 1e-4,
                                               double p_max = 1.0);

/// Discrete-model goal: the same search, but every evaluation is the
/// exact discrete ranking model (Eqs. 1 and 3) instead of the continuous
/// quadrature. p is part of the context key, so each evaluation builds a
/// DiscreteModelContext, O(max_size^2); the fold's top-t weights are made
/// once per query (DiscreteTopWeights). `config.p` is ignored. Unlike the
/// continuous overload, p_max must stay strictly below 1 (the discrete
/// model's domain is p in (0,1)).
[[nodiscard]] PlannerResult plan_sampling_rate(DiscreteModelConfig config,
                                               double target = 1.0,
                                               double p_min = 1e-4,
                                               double p_max = 0.999);

}  // namespace flowrank::core
