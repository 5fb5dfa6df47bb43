// Monte-Carlo evaluation of the ranking/detection metrics.
//
// Independent check of the analytic models: draw N flow sizes from the
// distribution, thin each binomially at rate p (exactly Bernoulli packet
// sampling), and count swapped pairs with the metrics module. Used by
// tests to validate the quadrature models and by benches to show agreement.
#pragma once

#include <cstdint>

#include "flowrank/core/ranking_model.hpp"
#include "flowrank/numeric/stats.hpp"

namespace flowrank::core {

/// Aggregates over Monte-Carlo runs.
struct McModelResult {
  numeric::RunningStats ranking_metric;    ///< swapped pairs, ranking defn
  numeric::RunningStats detection_metric;  ///< swapped pairs, detection defn
  numeric::RunningStats top_set_recall;    ///< sampled-top recall of true top

  /// Standard error of the ranking metric mean.
  [[nodiscard]] double ranking_stderr() const;
  /// Standard error of the detection metric mean.
  [[nodiscard]] double detection_stderr() const;
};

/// Runs `runs` independent populations (sizes and sampling redrawn each
/// run). Deterministic in `seed`, including across `num_threads`: each run
/// owns its own derived RNG stream and result slot, runs execute on the
/// shared exec::TaskPool, and per-run partials are folded in run order —
/// so any thread count reproduces the sequential aggregates bit for bit
/// (num_threads: 1 = sequential, 0 = all hardware threads; requires
/// config.size_dist->sample() to be safe for concurrent calls with
/// distinct engines, true of every dist:: implementation). Throws on
/// invalid configuration.
[[nodiscard]] McModelResult run_mc_model(const RankingModelConfig& config,
                                         int runs, std::uint64_t seed,
                                         std::size_t num_threads = 1);

}  // namespace flowrank::core
