// The general ranking model (Sec. 5): how well does the sampled top-t list
// match the true top-t list, *including order*?
//
// Performance metric (Sec. 5.1): the expected number of swapped flow
// pairs, over pairs whose first element is a top-t flow and whose second
// element is any other flow — (2N-t-1)t/2 pairs in total:
//
//     metric = (2N - t - 1) * t / 2 * P̄mt
//
// where P̄mt is the probability that a random such pair is swapped after
// sampling. The paper deems the ranking acceptable when metric < 1.
//
// Evaluation follows the paper's own computational path: the Gaussian
// approximation Eq. (2) for the pairwise misranking probability and a
// continuous flow-size distribution, turning Eq. (3) into integrals
// (Sec. 5.2: "reduces the computation time ... to few seconds").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "flowrank/core/model_common.hpp"
#include "flowrank/dist/flow_size_distribution.hpp"

namespace flowrank::numeric {
struct GaussLegendreRule;
}  // namespace flowrank::numeric

namespace flowrank::core {

/// Inputs of the ranking model.
struct RankingModelConfig {
  std::int64_t n = 0;  ///< total number of flows N in the measurement interval
  std::int64_t t = 0;  ///< number of top flows to rank
  double p = 0.0;      ///< packet sampling rate
  std::shared_ptr<const dist::FlowSizeDistribution> size_dist;
  QuadratureOptions quad;
  /// Pairwise probability plugged into Eq. (3). kGaussian is the paper's
  /// computational path; kHybrid corrects its small-flow tail bias.
  PairwiseModel pairwise = PairwiseModel::kGaussian;
  /// Top-top pair accounting (see PairCounting). kPaper reproduces the
  /// published curves; kUnordered matches the simulated metric.
  PairCounting counting = PairCounting::kPaper;
};

/// Result of evaluating the model at one configuration.
struct RankingModelResult {
  double mean_pair_misranking = 0.0;  ///< P̄mt
  double metric = 0.0;                ///< (2N-t-1) t/2 * P̄mt, "avg swapped pairs"
  double pair_count = 0.0;            ///< (2N-t-1) t/2
};

/// The p-independent part of the Eq. (3) quadrature, built once per
/// (n, t, size distribution, quadrature options, pairwise model, pair
/// counting): the outer nodes y with their sizes x(y) and both top-t
/// probabilities, and, per inner panel, its half-width and one value per
/// node. For kHybrid that value is the companion size
/// x(v) = tail_quantile(v); for kGaussian it is the pair's spread
/// c = gaussian_spread(x(y), x(v)), stored in place of the size, so
/// that Eq. (2) at rate p is (1/2) erfc(c r) with one r per evaluation.
/// The build lays out one inner integral at a time: its panels
/// (integrate_toward's layout, TowardLayout, made once per context), its
/// nodes written into the term array, one batch
/// FlowSizeDistribution::tail_quantiles over them in place and, for
/// kGaussian, one core::gaussian_spreads pass in place; the sizes are
/// the scalar tail_quantile's bit for bit.
/// evaluate(p) applies the pairwise model to the cached values, with the
/// panel sums taken in the one-shot quadrature's order, so a rate search
/// pays for the size quantiles once. The Gaussian pass computes one
/// inner integral's erfc values at a time with numeric::erfc_scaled
/// (spreads are monotone within each panel and ascend from panel to
/// panel, so an integral makes few regime runs). Immutable once built;
/// evaluate() is const.
class RankingModelContext {
 public:
  /// Ignores config.p. Throws std::invalid_argument without a size
  /// distribution or unless 1 <= t <= N.
  explicit RankingModelContext(const RankingModelConfig& config);

  /// The model at rate p. Throws std::invalid_argument unless 0 < p <= 1.
  [[nodiscard]] RankingModelResult evaluate(double p) const;

  /// Pairwise probabilities one evaluate() computes: one per cached
  /// inner node.
  [[nodiscard]] std::size_t pairwise_terms() const { return terms_.size(); }

 private:
  /// Inner integral `index` under Eq. (2), with r = gaussian_rate_factor(p)
  /// (ignored when `lossless`, p == 1).
  [[nodiscard]] double gaussian_integral(std::uint32_t index, double r,
                                         bool lossless) const;
  /// Inner integral `index` under misranking_hybrid, against outer size x.
  [[nodiscard]] double hybrid_integral(std::uint32_t index, double x,
                                       bool companion_smaller, double p) const;

  std::int64_t n_ = 0;
  std::int64_t t_ = 0;
  PairwiseModel pairwise_ = PairwiseModel::kGaussian;
  const numeric::GaussLegendreRule* outer_rule_ = nullptr;
  /// Gauss-Legendre rule of each panel of an inner integral, in order.
  std::vector<const numeric::GaussLegendreRule*> panel_rules_;
  std::size_t inner_sizes_ = 0;  ///< nodes per inner integral
  std::vector<double> outer_half_;  ///< per outer panel
  /// Per outer node, panel-major: x(y) and the two top-t probabilities.
  std::vector<double> x_, pt_t_, pt_tm1_;
  /// Per outer node: index of its A (companion smaller) / B (companion at
  /// least as large) integral, or kNone when the term is zero.
  std::vector<std::uint32_t> a_index_, b_index_;
  std::vector<double> panel_half_;  ///< per inner panel
  /// Per inner node: the spread c (kGaussian) or companion size (kHybrid).
  std::vector<double> terms_;
};

/// Evaluates the continuous ranking model:
/// RankingModelContext(config).evaluate(config.p).
/// Throws std::invalid_argument on inconsistent configuration
/// (requires 1 <= t <= N, 0 < p <= 1, a size distribution).
[[nodiscard]] RankingModelResult evaluate_ranking_model(const RankingModelConfig& config);

}  // namespace flowrank::core
