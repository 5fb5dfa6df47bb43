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

void for_each_toward_panel(double lo, double hi, bool focus_on_lo,
                           const QuadratureOptions& opts,
                           const std::function<void(double, double, int)>& panel) {
  const double width = hi - lo;
  const double eps = opts.tail_epsilon;
  // Geometric panel edges in distance-from-focus, from eps*width to width.
  const int panels = opts.inner_panels;
  const double log_ratio = std::log(1.0 / eps) / panels;
  double prev = eps * width;
  // Sliver adjacent to the focus: integrand there is bounded (Pm <= 1), so
  // one straight panel suffices.
  panel(focus_on_lo ? lo : hi - prev, focus_on_lo ? lo + prev : hi, 4);
  for (int i = 1; i <= panels; ++i) {
    const double next = i == panels ? width : eps * width * std::exp(log_ratio * i);
    panel(focus_on_lo ? lo + prev : hi - next, focus_on_lo ? lo + next : hi - prev,
          opts.inner_order);
    prev = next;
  }
}

double integrate_toward(const std::function<double(double)>& f, double lo, double hi,
                        bool focus_on_lo, const QuadratureOptions& opts) {
  if (!(hi > lo)) return 0.0;
  double acc = 0.0;
  for_each_toward_panel(lo, hi, focus_on_lo, opts, [&](double a, double b, int order) {
    acc += numeric::integrate_gl(f, a, b, order);
  });
  return acc;
}

}  // namespace flowrank::core
