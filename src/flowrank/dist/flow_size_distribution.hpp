// Flow-size distributions (packets per flow).
//
// The paper's analytic models are parameterized by the distribution of
// flow sizes on the monitored link (Sec. 6 fits Pareto tails to the
// Sprint traces). Everything the models need is the complementary CDF,
// its inverse (for the quantile-space integrals) and the mean; the
// trace generator and Monte-Carlo validation additionally draw samples.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "flowrank/util/rng.hpp"

namespace flowrank::dist {

/// Continuous distribution of flow sizes, supported on [min_size, inf).
class FlowSizeDistribution {
 public:
  virtual ~FlowSizeDistribution() = default;

  /// Human-readable description, e.g. "pareto(min=3.2, beta=1.5)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Left edge of the support (> 0; flows have at least ~1 packet).
  [[nodiscard]] virtual double min_size() const noexcept = 0;

  /// Mean flow size. Throws std::logic_error if the mean diverges.
  [[nodiscard]] virtual double mean() const = 0;

  /// P{X > x}. Equals 1 for x below the support.
  [[nodiscard]] virtual double ccdf(double x) const = 0;

  /// Inverse of ccdf: the size x with P{X > x} = y, for y in (0, 1].
  /// Throws std::domain_error outside that range.
  [[nodiscard]] virtual double tail_quantile(double y) const = 0;

  /// out[i] = tail_quantile(y[i]) bit for bit, one virtual call for the
  /// whole batch; out may be y itself (in place). The default loops over
  /// the scalar; an override computes the same bits faster (Pareto's runs
  /// one vectorized kernel). Throws std::invalid_argument unless the spans
  /// have the same size, and std::domain_error as tail_quantile does; an
  /// override checks every y before it writes.
  virtual void tail_quantiles(std::span<const double> y, std::span<double> out) const {
    if (y.size() != out.size()) {
      throw std::invalid_argument("tail_quantiles: y and out differ in size");
    }
    for (std::size_t i = 0; i < y.size(); ++i) out[i] = tail_quantile(y[i]);
  }

  /// Draws one flow size.
  [[nodiscard]] virtual double sample(util::Engine& engine) const = 0;

  /// Deep copy (shared so model configs can alias it cheaply).
  [[nodiscard]] virtual std::shared_ptr<FlowSizeDistribution> clone() const = 0;
};

/// Validates y in (0, 1] for tail_quantile implementations.
inline void check_tail_quantile_arg(double y) {
  if (!(y > 0.0 && y <= 1.0)) {
    throw std::domain_error("tail_quantile: y must be in (0, 1]");
  }
}

}  // namespace flowrank::dist
