#include "flowrank/core/model_common.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "flowrank/numeric/binomial.hpp"
#include "flowrank/numeric/quadrature.hpp"

namespace flowrank::core {

double top_probability(double y, std::int64_t t, std::int64_t n,
                       const QuadratureOptions& opts) {
  if (t <= 0) return 0.0;
  if (y <= 0.0) return 1.0;
  if (y >= 1.0) return t >= n + 1 ? 1.0 : 0.0;
  if (n - 1 <= 0) return 1.0;
  if (n >= opts.poisson_threshold && y < 0.01) {
    return numeric::poisson_cdf(t - 1, static_cast<double>(n - 1) * y);
  }
  return numeric::binomial_cdf(t - 1, n - 1, y);
}

double outer_z_max(std::int64_t t, const QuadratureOptions& opts) {
  const double td = static_cast<double>(t);
  return td + 20.0 * std::sqrt(td) + opts.z_max_pad;
}

TowardLayout::TowardLayout(const QuadratureOptions& opts)
    : eps_(opts.tail_epsilon),
      inner_panels_(opts.inner_panels),
      inner_order_(opts.inner_order) {
  // Geometric panel edges in distance-from-focus, from eps*width to width.
  const double log_ratio = std::log(1.0 / eps_) / inner_panels_;
  for (int i = 1; i < inner_panels_; ++i) growth_.push_back(std::exp(log_ratio * i));
}

double integrate_toward(const std::function<double(double)>& f, double lo, double hi,
                        bool focus_on_lo, const QuadratureOptions& opts) {
  if (!(hi > lo)) return 0.0;
  double acc = 0.0;
  TowardLayout(opts).for_each(lo, hi, focus_on_lo, [&](double a, double b, int order) {
    acc += numeric::integrate_gl(f, a, b, order);
  });
  return acc;
}

}  // namespace flowrank::core
