// Exact discrete evaluation of the ranking model (Eqs. 1 and 3).
//
// This is the paper's "original problem" — binomial sums over integer
// packet counts — which it abandons for the Gaussian/continuous path
// because it took hours at Internet scale. Since the compute-layer
// rework it is fast enough to use as a first-class experiment axis:
// evaluate_discrete_ranking_model() is now a one-shot convenience shim
// over core::DiscreteModelContext (discrete_context.hpp), which builds
// the pairwise partial sums once and makes every further (n, t)
// evaluation near-free. Sweeps and the planner should hold a context
// directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "flowrank/dist/discretized.hpp"

namespace flowrank::core {

/// Configuration for the exact discrete ranking model.
struct DiscreteModelConfig {
  std::int64_t n = 0;  ///< total number of flows
  std::int64_t t = 0;  ///< top flows of interest
  double p = 0.0;      ///< sampling rate
  /// Size pmf; evaluation cost grows with the size support, so keep the
  /// distribution's effective support modest (<= max_size).
  std::shared_ptr<const dist::Discretized> size_pmf;
  /// Hard cap on the summed size support; the pmf tail beyond it must be
  /// negligible. Throws if the tail mass above it exceeds tail_tolerance.
  std::int64_t max_size = 4096;
  double tail_tolerance = 1e-6;
  /// Use the Gaussian Pm instead of the exact Eq. (1) inside Eq. (3) —
  /// isolates discretization error from Gaussian-approximation error.
  bool gaussian_pairwise = false;
  /// Build parallelism on the shared exec::TaskPool (0 = all hardware
  /// threads); never changes results.
  std::size_t num_threads = 1;
};

/// P̄mt and metric, exactly as in Sec. 5.2.
struct DiscreteModelResult {
  double mean_pair_misranking = 0.0;
  double metric = 0.0;
};

/// One-shot evaluation: builds a DiscreteModelContext for the config and
/// evaluates it at (n, t). The build dominates (O(max_size^2) work);
/// callers evaluating several (n, t) cells or planner probes should build
/// the context once instead.
[[nodiscard]] DiscreteModelResult evaluate_discrete_ranking_model(
    const DiscreteModelConfig& config);

}  // namespace flowrank::core
