#include "flowrank/dist/discretized.hpp"

#include <cmath>
#include <stdexcept>

namespace flowrank::dist {

Discretized::Discretized(std::shared_ptr<const FlowSizeDistribution> source)
    : source_(std::move(source)) {
  if (!source_) throw std::invalid_argument("Discretized: source required");
  min_packets_ = static_cast<std::int64_t>(std::floor(source_->min_size())) + 1;
}

double Discretized::pmf(std::int64_t i) const {
  if (i < min_packets_) return 0.0;
  return ccdf_geq(i) - ccdf_geq(i + 1);
}

double Discretized::ccdf_geq(std::int64_t i) const {
  if (i <= min_packets_) return 1.0;
  return source_->ccdf(static_cast<double>(i - 1));
}

void Discretized::fill_rows(std::int64_t first, std::span<double> pmf,
                            std::span<double> ccdf) const {
  if (pmf.size() != ccdf.size()) {
    throw std::invalid_argument("Discretized::fill_rows: pmf and ccdf differ in size");
  }
  double next = ccdf_geq(first);
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    const auto i = first + static_cast<std::int64_t>(k);
    const double here = next;
    next = ccdf_geq(i + 1);
    ccdf[k] = here;
    pmf[k] = i < min_packets_ ? 0.0 : here - next;  // pmf(i)'s difference
  }
}

double Discretized::mean() const {
  if (cached_mean_ >= 0.0) return cached_mean_;
  // E[N] = sum_{i>=1} P{N >= i}; the first min_packets-1 terms are 1.
  double acc = static_cast<double>(min_packets_ - 1);
  constexpr std::int64_t kDirectTerms = 2000000;
  std::int64_t i = min_packets_;
  bool converged = false;
  for (; i - min_packets_ < kDirectTerms; ++i) {
    const double term = ccdf_geq(i);
    acc += term;
    if (term < 1e-12) {
      converged = true;
      break;
    }
  }
  if (!converged) {
    // Very heavy tails (beta near 1) would need ~1e8+ direct terms. Out
    // here the ccdf is a pure power law to double precision, so estimate
    // its local exponent from one octave and close the remainder
    //   sum_{j>=i} ccdf(j-1) ~ int_a^inf ccdf + ccdf(a)/2
    //                        = a ccdf(a)/(beta-1) + ccdf(a)/2,
    // which is exact (up to the midpoint term) for Pareto tails. An
    // exponent at or below 1 means the mean diverges — refuse to return
    // a silently truncated value, matching Pareto::mean().
    const double a = static_cast<double>(i - 1);
    const double tail_a = source_->ccdf(a);
    if (tail_a > 0.0) {
      const double tail_2a = source_->ccdf(2.0 * a);
      const double beta_est = std::log(tail_a / tail_2a) / std::log(2.0);
      if (!(beta_est > 1.001)) {
        throw std::logic_error(
            "Discretized::mean: tail exponent <= 1, mean diverges");
      }
      acc += a * tail_a / (beta_est - 1.0) + 0.5 * tail_a;
    }
  }
  cached_mean_ = acc;
  return cached_mean_;
}

std::int64_t Discretized::sample(util::Engine& engine) const {
  const auto n = static_cast<std::int64_t>(std::ceil(source_->sample(engine)));
  return n < min_packets_ ? min_packets_ : n;
}

std::string Discretized::name() const {
  return "discretized(" + source_->name() + ")";
}

}  // namespace flowrank::dist
