// Pareto flow-size distributions (Sec. 6: "flow sizes are well modeled
// by a Pareto distribution" with tail index beta between 1 and 2 for the
// Sprint traces). BoundedPareto truncates the tail, which models links
// where the largest flows are capped by the measurement interval.
#pragma once

#include "flowrank/dist/flow_size_distribution.hpp"

namespace flowrank::dist {

/// Pareto(min, beta): ccdf(x) = (x / min)^-beta for x >= min. The
/// quantiles, scalar and batch, are min * numeric::unit_power(y, -1/beta)
/// (in-repo log and exp kernels, within 2 ulp of min * std::pow(y,
/// -1/beta)); ccdf and sample keep std::pow.
class Pareto final : public FlowSizeDistribution {
 public:
  /// Throws std::invalid_argument unless min > 0 and beta > 0.
  Pareto(double min, double beta);

  /// The Pareto with the given mean and tail index (beta > 1 required,
  /// else the mean diverges): min = mean (beta-1)/beta.
  [[nodiscard]] static Pareto from_mean(double mean, double beta);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double min_size() const noexcept override { return min_; }
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double ccdf(double x) const override;
  [[nodiscard]] double tail_quantile(double y) const override;
  void tail_quantiles(std::span<const double> y, std::span<double> out) const override;
  [[nodiscard]] double sample(util::Engine& engine) const override;
  [[nodiscard]] std::shared_ptr<FlowSizeDistribution> clone() const override;

  [[nodiscard]] double beta() const noexcept { return beta_; }

 private:
  double min_;
  double beta_;
};

/// Pareto truncated to [min, max]: the conditional law of Pareto(min, beta)
/// given X <= max. Always has a finite mean.
class BoundedPareto final : public FlowSizeDistribution {
 public:
  /// Throws std::invalid_argument unless 0 < min < max and beta > 0.
  BoundedPareto(double min, double beta, double max);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double min_size() const noexcept override { return min_; }
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double ccdf(double x) const override;
  [[nodiscard]] double tail_quantile(double y) const override;
  [[nodiscard]] double sample(util::Engine& engine) const override;
  [[nodiscard]] std::shared_ptr<FlowSizeDistribution> clone() const override;

 private:
  double min_;
  double beta_;
  double max_;
  double tail_at_max_;  ///< (min/max)^beta, cached
};

}  // namespace flowrank::dist
