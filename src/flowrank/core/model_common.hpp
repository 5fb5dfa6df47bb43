// Shared machinery for the continuous ranking/detection models.
//
// Both models integrate in rank space y = F̄(x) (tail probability of a
// flow size x), where the flow-size measure is uniform on (0,1). Top-t
// membership probabilities are binomial tails in y with huge N; they die
// off super-exponentially past y ≈ t/N, which bounds the outer integrals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "flowrank/dist/flow_size_distribution.hpp"

namespace flowrank::core {

/// Which pairwise misranking probability the general models integrate.
enum class PairwiseModel {
  kGaussian,  ///< the paper's Eq. (2) — reproduces the paper's curves
  kHybrid,    ///< semi-exact for poorly-sampled companions (matches MC at
              ///< Internet scale; see misranking_hybrid)
};

/// How the ranking model counts pairs where both flows are in the top t.
///
/// Eq. (3)'s second sum (companion at least as large as the reference
/// top-t flow) necessarily describes pairs whose BOTH members are top-t:
/// any flow larger than a top-t flow is itself top-t. Each such unordered
/// pair also appears once in the larger member's first sum, so the paper's
/// formula counts every top-top pair twice while its simulation metric
/// (and ours) counts unordered pairs once. kUnordered drops the second
/// sum, which makes the expectation match the simulated metric exactly;
/// kPaper keeps the published formula.
enum class PairCounting {
  kPaper,      ///< Eq. (3) as published (top-top pairs counted twice)
  kUnordered,  ///< each unordered pair once (matches the simulation metric)
};

/// Quadrature tuning shared by the models. Defaults reproduce the paper's
/// curves to plotting accuracy in well under a second per point.
struct QuadratureOptions {
  int outer_panels = 24;      ///< panels across the top-flow region
  int outer_order = 16;       ///< GL order per outer panel
  int inner_panels = 24;      ///< log-spaced panels for the companion flow
  int inner_order = 12;       ///< GL order per inner panel
  double tail_epsilon = 1e-9; ///< inner integration cutoff around singular ends
  double z_max_pad = 80.0;    ///< outer cutoff: z_max = t + 20*sqrt(t) + pad
  /// Use the Poisson limit for binomial top-probabilities when N is large;
  /// exact incomplete-beta evaluation otherwise (and always when N below
  /// the threshold).
  std::int64_t poisson_threshold = 50000;
};

/// P{flow of tail-rank y is among the top t of N flows}
///   = P{Bin(N-1, y) <= t-1}.
/// `opts` selects exact vs Poisson-limit evaluation.
[[nodiscard]] double top_probability(double y, std::int64_t t, std::int64_t n,
                                     const QuadratureOptions& opts);

/// Upper edge (in z = N*y units) beyond which top_probability is
/// negligible against N^2-scale pair counts.
[[nodiscard]] double outer_z_max(std::int64_t t, const QuadratureOptions& opts);

/// integrate_toward's panel layout: over [lo, hi], a 4-point sliver of
/// width tail_epsilon*(hi-lo) at the focus endpoint, then inner_panels
/// panels of order inner_order whose distances from the focus grow
/// geometrically up to hi-lo. The growth factors exp(i ln(1/eps) /
/// inner_panels) are the same for every range, so they are computed once
/// per layout; the edges have the bits of computing them per range.
class TowardLayout {
 public:
  explicit TowardLayout(const QuadratureOptions& opts);

  /// Panels per range and the Gauss-Legendre order of panel j, in
  /// summation order.
  [[nodiscard]] std::size_t panels() const noexcept {
    return inner_panels_ > 0 ? static_cast<std::size_t>(inner_panels_) + 1 : 1;
  }
  [[nodiscard]] int order(std::size_t j) const noexcept {
    return j == 0 ? kSliverOrder : inner_order_;
  }

  /// Calls `panel(a, b, order)` for each panel [a, b] of [lo, hi], in
  /// summation order. Requires hi > lo.
  template <class Panel>
  void for_each(double lo, double hi, bool focus_on_lo, Panel&& panel) const {
    const double width = hi - lo;
    double prev = eps_ * width;
    // Sliver adjacent to the focus: the integrand there is bounded
    // (Pm <= 1), so one straight panel suffices.
    panel(focus_on_lo ? lo : hi - prev, focus_on_lo ? lo + prev : hi, kSliverOrder);
    for (int i = 1; i <= inner_panels_; ++i) {
      const double next =
          i == inner_panels_ ? width : eps_ * width * growth_[static_cast<std::size_t>(i - 1)];
      panel(focus_on_lo ? lo + prev : hi - next, focus_on_lo ? lo + next : hi - prev,
            inner_order_);
      prev = next;
    }
  }

 private:
  static constexpr int kSliverOrder = 4;
  double eps_ = 0.0;
  int inner_panels_ = 0;
  int inner_order_ = 0;
  std::vector<double> growth_;  ///< exp(log_ratio * i), i = 1 .. inner_panels - 1
};

/// Integrates `f(v)` over v in [lo, hi] with panels geometrically
/// concentrated toward the `focus` endpoint (which must be lo or hi).
/// Used for companion-flow integrals whose integrand varies fastest where
/// the companion size approaches the reference flow's size.
[[nodiscard]] double integrate_toward(const std::function<double(double)>& f,
                                      double lo, double hi, bool focus_on_lo,
                                      const QuadratureOptions& opts);

}  // namespace flowrank::core
