#include "flowrank/core/ranking_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "flowrank/core/misranking.hpp"
#include "flowrank/numeric/quadrature.hpp"
#include "flowrank/numeric/special.hpp"

namespace flowrank::core {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Erfc values the Gaussian pass holds at once, on the stack. A
/// Gauss-Legendre panel has at most 128 nodes, so every panel fits; the
/// default layout's 292 nodes per inner integral take one batch.
constexpr std::size_t kErfcBatch = 512;

/// Appends one inner integral of integrate_toward(f, lo, hi, focus_on_lo,
/// quad): each panel's half-width and, at its Gauss-Legendre nodes, the
/// sizes x(v) (or, when `gaussian`, the spreads gaussian_spread(x, x(v))),
/// with integrate_gl's node arithmetic, so the cached sizes are the ones
/// the one-shot quadrature evaluates. The nodes go into `terms` first and
/// become sizes, then spreads, in place: one batch quantile and one
/// spread pass per integral.
void append_inner(const dist::FlowSizeDistribution& dist, const TowardLayout& layout,
                  const std::vector<const numeric::GaussLegendreRule*>& rules,
                  std::size_t sizes, double lo, double hi, bool focus_on_lo, bool gaussian,
                  double x, std::vector<double>& panel_half, std::vector<double>& terms) {
  const std::size_t first = terms.size();
  terms.resize(first + sizes);
  double* node_value = terms.data() + first;
  std::size_t panel = 0;
  layout.for_each(lo, hi, focus_on_lo, [&](double a, double b, int) {
    const double mid = 0.5 * (a + b);
    const double half = 0.5 * (b - a);
    for (const double node : rules[panel++]->nodes) *node_value++ = mid + half * node;
    panel_half.push_back(half);
  });
  const std::span<double> values(terms.data() + first, sizes);
  dist.tail_quantiles(values, values);
  if (gaussian) gaussian_spreads(x, values);
}

}  // namespace

RankingModelContext::RankingModelContext(const RankingModelConfig& config)
    : n_(config.n), t_(config.t), pairwise_(config.pairwise) {
  if (!config.size_dist) {
    throw std::invalid_argument("ranking model: size_dist is required");
  }
  if (config.t < 1 || config.t > config.n) {
    throw std::invalid_argument("ranking model: requires 1 <= t <= N");
  }
  const auto& dist = *config.size_dist;
  const auto& quad = config.quad;
  outer_rule_ = &numeric::gauss_legendre(quad.outer_order);
  // Every inner integral has integrate_toward's panel layout; only the
  // edges depend on the range.
  const TowardLayout layout(quad);
  for (std::size_t j = 0; j < layout.panels(); ++j) {
    panel_rules_.push_back(&numeric::gauss_legendre(layout.order(j)));
    inner_sizes_ += static_cast<std::size_t>(layout.order(j));
  }

  // Eq. (3), continuous, after the Pt(i,t,N) cancellation (see DESIGN.md):
  //   P̄mt = (N/t) ∫_0^1 [ Pt(y;t,N-1) A(y) + Pt(y;t-1,N-1) B(y) ] dy
  //   A(y) = ∫_y^1 Pm(x(v), x(y)) dv   (companion smaller than x(y))
  //   B(y) = ∫_0^y Pm(x(y), x(v)) dv   (companion at least as large)
  // Outer integral over the top-flow region: z = N*y in (0, z_max].
  const double z_max = outer_z_max(t_, quad);
  const double y_max = std::min(1.0, z_max / static_cast<double>(n_));
  const double panel_width = y_max / quad.outer_panels;
  std::vector<double> ys;
  std::uint32_t integrals = 0;
  for (int i = 0; i < quad.outer_panels; ++i) {
    const double lo = panel_width * i;
    const double hi = i + 1 == quad.outer_panels ? y_max : panel_width * (i + 1);
    const double mid = 0.5 * (lo + hi);
    const double half = 0.5 * (hi - lo);
    outer_half_.push_back(half);
    for (const double node : outer_rule_->nodes) {
      const double y = mid + half * node;
      ys.push_back(y);
      // Pt(i,t,N-1) in the paper is a binomial over N-2 other flows;
      // top_probability(y,t,m) computes P{Bin(m-1,y) <= t-1}, so pass m = N-1.
      const double pt_t = top_probability(y, t_, n_ - 1, quad);
      const double pt_tm1 = top_probability(y, t_ - 1, n_ - 1, quad);
      pt_t_.push_back(pt_t);
      pt_tm1_.push_back(pt_tm1);
      // An empty range integrates to 0, like an inactive term.
      const bool a = pt_t > 0.0 && 1.0 > y;
      const bool b =
          config.counting == PairCounting::kPaper && t_ >= 2 && pt_tm1 > 0.0 && y > 0.0;
      a_index_.push_back(a ? integrals++ : kNone);
      b_index_.push_back(b ? integrals++ : kNone);
    }
  }
  x_.resize(ys.size());
  dist.tail_quantiles(ys, x_);
  const bool gaussian = pairwise_ == PairwiseModel::kGaussian;
  panel_half_.reserve(integrals * panel_rules_.size());
  terms_.reserve(integrals * inner_sizes_);
  for (std::size_t node = 0; node < ys.size(); ++node) {
    if (a_index_[node] != kNone) {
      append_inner(dist, layout, panel_rules_, inner_sizes_, ys[node], 1.0,
                   /*focus_on_lo=*/true, gaussian, x_[node], panel_half_, terms_);
    }
    if (b_index_[node] != kNone) {
      append_inner(dist, layout, panel_rules_, inner_sizes_, 0.0, ys[node],
                   /*focus_on_lo=*/false, gaussian, x_[node], panel_half_, terms_);
    }
  }
}

double RankingModelContext::gaussian_integral(std::uint32_t index, double r,
                                              bool lossless) const {
  const std::size_t panels = panel_rules_.size();
  const double* half = panel_half_.data() + index * panels;
  const double* spread = terms_.data() + index * inner_sizes_;
  std::array<double, kErfcBatch> erfc_values;
  double acc = 0.0;
  for (std::size_t first = 0; first < panels;) {
    // The next panels that fit in one batch.
    std::size_t last = first;
    std::size_t count = 0;
    while (last < panels && count + panel_rules_[last]->weights.size() <= kErfcBatch) {
      count += panel_rules_[last]->weights.size();
      ++last;
    }
    const std::span<const double> c(spread, count);
    if (lossless) {
      // erfc(c * inf), without the 0 * inf of an equal-size pair.
      for (std::size_t i = 0; i < count; ++i) erfc_values[i] = c[i] == 0.0 ? 1.0 : 0.0;
    } else {
      numeric::erfc_scaled(c, r, std::span<double>(erfc_values.data(), count));
    }
    // misranking_gaussian's 0.5 * erfc, summed as integrate_gl does.
    const double* value = erfc_values.data();
    for (; first < last; ++first) {
      double sum = 0.0;
      for (const double w : panel_rules_[first]->weights) sum += w * (0.5 * *value++);
      acc += sum * half[first];
    }
    spread += count;
  }
  return acc;
}

double RankingModelContext::hybrid_integral(std::uint32_t index, double x,
                                            bool companion_smaller, double p) const {
  const std::size_t panels = panel_rules_.size();
  const double* half = panel_half_.data() + index * panels;
  const double* size = terms_.data() + index * inner_sizes_;
  double acc = 0.0;
  for (std::size_t j = 0; j < panels; ++j) {
    double sum = 0.0;
    for (const double w : panel_rules_[j]->weights) {
      sum += w * (companion_smaller ? misranking_hybrid(*size, x, p)
                                    : misranking_hybrid(x, *size, p));
      ++size;
    }
    acc += sum * half[j];
  }
  return acc;
}

RankingModelResult RankingModelContext::evaluate(double p) const {
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("ranking model: requires p in (0,1]");
  }
  const bool gaussian = pairwise_ == PairwiseModel::kGaussian;
  const bool lossless = p == 1.0;
  const double r = lossless ? 0.0 : gaussian_rate_factor(p);
  const auto inner = [&](std::uint32_t index, std::size_t node, bool companion_smaller) {
    return gaussian ? gaussian_integral(index, r, lossless)
                    : hybrid_integral(index, x_[node], companion_smaller, p);
  };
  // The panel sums of numeric::integrate_gl and integrate_toward, in
  // their order: sum w_k f(node_k) per panel, then scale by the panel's
  // half-width and add.
  double outer = 0.0;
  std::size_t node = 0;
  for (const double outer_half : outer_half_) {
    double acc = 0.0;
    for (const double w : outer_rule_->weights) {
      double a_term = 0.0;
      if (a_index_[node] != kNone) {
        a_term = pt_t_[node] * inner(a_index_[node], node, true);
      }
      double b_term = 0.0;
      if (b_index_[node] != kNone) {
        b_term = pt_tm1_[node] * inner(b_index_[node], node, false);
      }
      acc += w * (a_term + b_term);
      ++node;
    }
    outer += acc * outer_half;
  }

  RankingModelResult result;
  result.mean_pair_misranking =
      outer * static_cast<double>(n_) / static_cast<double>(t_);
  result.pair_count =
      0.5 * static_cast<double>(2 * n_ - t_ - 1) * static_cast<double>(t_);
  result.metric = result.pair_count * result.mean_pair_misranking;
  return result;
}

RankingModelResult evaluate_ranking_model(const RankingModelConfig& config) {
  return RankingModelContext(config).evaluate(config.p);
}

}  // namespace flowrank::core
