#include "flowrank/core/discrete_context.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "flowrank/core/misranking.hpp"
#include "flowrank/exec/task_pool.hpp"
#include "flowrank/numeric/binomial.hpp"

namespace flowrank::core {

namespace {

/// One row of Bin(s, p) pmf values b_p(k, s), k = 0..s, and its nonzero
/// k-range. Where the k = 0 seed (1-p)^s is a normal double, this is the
/// seed and recurrence the pre-context code ran inline, so every stored
/// value is bit-identical to what the old incremental loops produced.
/// Once s*ln(1-p) < ~-708 that seed underflows: recurring from a zero (or
/// subnormal) seed would leave the whole row zero or grossly wrong. Such a
/// row is anchored at its mode with one log-space pmf and recurred in both
/// directions instead; entries below 2^-60 of the mode value are left
/// zero (they cannot move a double-precision sum, and multiplying them
/// would only drag the k-sums through subnormal arithmetic), and the
/// returned range lets the k-sums skip them.
std::pair<std::int64_t, std::int64_t> fill_pmf_row(double* row, std::int64_t s,
                                                   double p) {
  const double odds = p / (1.0 - p);
  double b = std::pow(1.0 - p, static_cast<double>(s));  // k = 0
  if (b >= std::numeric_limits<double>::min()) {
    for (std::int64_t k = 0; k <= s; ++k) {
      row[static_cast<std::size_t>(k)] = b;
      if (k < s) {
        b *= static_cast<double>(s - k) / static_cast<double>(k + 1) * odds;
      }
    }
    return {0, s};
  }
  std::fill(row, row + s + 1, 0.0);
  const std::int64_t mode = std::min<std::int64_t>(
      s, static_cast<std::int64_t>(std::floor(static_cast<double>(s + 1) * p)));
  const double peak = std::exp(numeric::binomial_log_pmf(mode, s, p));
  const double cutoff = std::ldexp(peak, -60);
  row[static_cast<std::size_t>(mode)] = peak;
  std::int64_t k_hi = mode;
  for (b = peak; k_hi < s; ++k_hi) {
    b *= static_cast<double>(s - k_hi) / static_cast<double>(k_hi + 1) * odds;
    if (b < cutoff) break;
    row[static_cast<std::size_t>(k_hi + 1)] = b;
  }
  const double inv_odds = (1.0 - p) / p;
  std::int64_t k_lo = mode;
  for (b = peak; k_lo > 0; --k_lo) {
    b *= static_cast<double>(k_lo) / static_cast<double>(s - k_lo + 1) * inv_odds;
    if (b < cutoff) break;
    row[static_cast<std::size_t>(k_lo - 1)] = b;
  }
  return {k_lo, k_hi};
}

/// A_i = sum_{j < i} pmf_j Pm(j, i) for ascending i, with the Eq. (1)
/// sum Pm(j, i) = sum_k b(k, j) C_i(k) swapped into
///   A_i = sum_k C_i(k) W(k),   W(k) = sum_{j < i} pmf_j b(k, j),
/// where C_i(k) = P{Bin(i, p) <= k} (clamped at 1, k < i). W gains row i
/// after A_i is taken, so one pmf row per size and O(S) state suffice.
void build_smaller_sums(const std::vector<double>& pmf, std::int64_t lo, double p,
                        std::vector<double>& out) {
  const std::size_t count = pmf.size();
  const std::int64_t hi = lo + static_cast<std::int64_t>(count) - 1;
  std::vector<double> row(static_cast<std::size_t>(hi) + 1);
  std::vector<double> w(static_cast<std::size_t>(hi) + 1, 0.0);
  for (std::size_t r = 0; r < count; ++r) {
    const std::int64_t s = lo + static_cast<std::int64_t>(r);
    const auto [k_lo, k_hi] = fill_pmf_row(row.data(), s, p);
    // C_s(k) is zero below k_lo: the row holds nothing there.
    double running = 0.0;
    double a = 0.0;
    for (std::int64_t k = k_lo; k < s; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      running += row[kk];
      a += (running < 1.0 ? running : 1.0) * w[kk];
    }
    out[r] = a;
    const double mass = pmf[r];
    for (std::int64_t k = k_lo; k <= k_hi; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      w[kk] += mass * row[kk];
    }
  }
}

/// B_i = pmf_i Pm(i, i) + sum_{j > i} pmf_j Pm(i, j) for descending i,
/// swapped the same way:
///   B_i = pmf_i Pm(i, i) + sum_k b(k, i) V(k),   V(k) = sum_{j > i} pmf_j C_j(k).
/// The equal-size diagonal Pm(i, i) = 1 - sum_{k >= 1} b(k, i)^2 comes
/// from the same row; V gains pmf_i C_i(k), k < i, after B_i is taken.
void build_larger_sums(const std::vector<double>& pmf, std::int64_t lo, double p,
                       std::vector<double>& out) {
  const std::size_t count = pmf.size();
  const std::int64_t hi = lo + static_cast<std::int64_t>(count) - 1;
  std::vector<double> row(static_cast<std::size_t>(hi) + 1);
  std::vector<double> v(static_cast<std::size_t>(hi) + 1, 0.0);
  for (std::size_t r = count; r-- > 0;) {
    const std::int64_t s = lo + static_cast<std::int64_t>(r);
    const auto [k_lo, k_hi] = fill_pmf_row(row.data(), s, p);
    double agree = 0.0;
    double b = 0.0;
    for (std::int64_t k = k_lo; k <= k_hi; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      if (k >= 1) agree += row[kk] * row[kk];
      b += row[kk] * v[kk];
    }
    const double mass = pmf[r];
    out[r] = mass * (1.0 - agree) + b;
    double running = 0.0;
    for (std::int64_t k = k_lo; k < s; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      running += row[kk];
      v[kk] += mass * (running < 1.0 ? running : 1.0);
    }
  }
}

/// The Gaussian flavour, pair by pair in one ascending pass: pair (j, i),
/// j < i, is computed once and feeds A_i (ascending j) and B_j (ascending
/// i, after B_j's diagonal term) in the order of the former table
/// reduction.
void build_gaussian_sums(const std::vector<double>& pmf, std::int64_t lo, double p,
                        std::vector<double>& a_sum, std::vector<double>& b_sum) {
  const std::size_t count = pmf.size();
  for (std::size_t r = 0; r < count; ++r) {
    const auto large = static_cast<double>(lo + static_cast<std::int64_t>(r));
    b_sum[r] = pmf[r] * misranking_gaussian(large, large, p);
    double a = 0.0;
    for (std::size_t j = 0; j < r; ++j) {
      const auto small = static_cast<double>(lo + static_cast<std::int64_t>(j));
      const double pm = misranking_gaussian(small, large, p);
      a += pmf[j] * pm;
      b_sum[j] += pmf[r] * pm;
    }
    a_sum[r] = a;
  }
}

}  // namespace

DiscreteContextConfig discrete_context_config(const DiscreteModelConfig& config) {
  if (!config.size_pmf) {
    throw std::invalid_argument("discrete model: size_pmf is required");
  }
  if (config.t < 1 || config.t > config.n) {
    throw std::invalid_argument("discrete model: requires 1 <= t <= N");
  }
  DiscreteContextConfig context;
  context.p = config.p;
  context.size_pmf = config.size_pmf;
  context.max_size = config.max_size;
  context.tail_tolerance = config.tail_tolerance;
  context.gaussian_pairwise = config.gaussian_pairwise;
  context.num_threads = config.num_threads;
  return context;
}

DiscreteModelContext::DiscreteModelContext(const DiscreteContextConfig& config) {
  if (!config.size_pmf) {
    throw std::invalid_argument("discrete model: size_pmf is required");
  }
  if (!(config.p > 0.0 && config.p < 1.0)) {
    throw std::invalid_argument("discrete model: requires p in (0,1)");
  }
  const auto& pmf_src = *config.size_pmf;
  const std::int64_t lo = pmf_src.min_packets();
  const std::int64_t hi = config.max_size;
  if (hi <= lo) throw std::invalid_argument("discrete model: max_size too small");
  const double tail = pmf_src.ccdf_geq(hi + 1);
  if (tail > config.tail_tolerance) {
    throw std::invalid_argument(
        "discrete model: pmf tail above max_size exceeds tolerance; "
        "increase max_size or lighten the tail");
  }

  p_ = config.p;
  source_ = config.size_pmf;
  lo_ = lo;
  hi_ = hi;
  const auto count = static_cast<std::size_t>(hi - lo + 1);
  pmf_.resize(count);
  ccdf_.resize(count);
  pmf_src.fill_rows(lo, pmf_, ccdf_);
  a_sum_.assign(count, 0.0);
  b_sum_.assign(count, 0.0);

  if (config.gaussian_pairwise) {
    build_gaussian_sums(pmf_, lo_, p_, a_sum_, b_sum_);
    return;
  }
  // The two passes share nothing but the read-only pmf, so they run as
  // two pool tasks when threads are allowed; each is sequential either way.
  const auto pass = [this](std::size_t which) {
    if (which == 0) {
      build_smaller_sums(pmf_, lo_, p_, a_sum_);
    } else {
      build_larger_sums(pmf_, lo_, p_, b_sum_);
    }
  };
  const std::size_t threads = exec::TaskPool::resolve_parallelism(config.num_threads);
  if (threads < 2) {
    pass(0);
    pass(1);
    return;
  }
  auto& pool = exec::TaskPool::shared();
  pool.ensure_workers(1);
  pool.parallel_for(2, pass, 2);
}

DiscreteTopWeights DiscreteModelContext::top_weights(std::int64_t n,
                                                     std::int64_t t) const {
  if (t < 1 || t > n) {
    throw std::invalid_argument("discrete model: requires 1 <= t <= N");
  }
  DiscreteTopWeights weights;
  weights.source_ = source_;
  weights.lo_ = lo_;
  weights.hi_ = hi_;
  weights.n_ = n;
  weights.t_ = t;
  // Pt(i,t,N-1) in Eq. (3) is a binomial over the N-2 other flows.
  const std::int64_t trials = n - 2;
  const std::size_t count = pmf_.size();
  weights.pt_t_.assign(count, 0.0);
  weights.pt_tm1_.assign(count, 0.0);
  for (std::size_t r = 0; r < count; ++r) {
    if (pmf_[r] <= 0.0) continue;  // the fold skips the size
    weights.pt_t_[r] = numeric::binomial_cdf(t - 1, trials, ccdf_[r]);
    weights.pt_tm1_[r] = numeric::binomial_cdf(t - 2, trials, ccdf_[r]);
  }
  return weights;
}

DiscreteModelResult DiscreteModelContext::evaluate(std::int64_t n,
                                                   std::int64_t t) const {
  return evaluate(top_weights(n, t));
}

DiscreteModelResult DiscreteModelContext::evaluate(const DiscreteTopWeights& weights) const {
  if (weights.source_ != source_ || weights.lo_ != lo_ || weights.hi_ != hi_) {
    throw std::invalid_argument(
        "discrete model: top-t weights were made for another size pmf or support");
  }
  // Eq. (3) after the Pt(i,t,N) cancellation:
  //   P̄mt = (N/t) sum_i p_i [ Pt(i,t,N-1) A_i + Pt(i,t-1,N-1) B_i ]
  const std::int64_t n = weights.n_;
  const std::int64_t t = weights.t_;
  double pbar = 0.0;
  const std::size_t count = pmf_.size();
  for (std::size_t r = 0; r < count; ++r) {
    const double pi_mass = pmf_[r];
    if (pi_mass <= 0.0) continue;
    pbar += pi_mass * (weights.pt_t_[r] * a_sum_[r] + weights.pt_tm1_[r] * b_sum_[r]);
  }
  pbar *= static_cast<double>(n) / static_cast<double>(t);

  DiscreteModelResult result;
  result.mean_pair_misranking = pbar;
  result.metric = 0.5 * static_cast<double>(2 * n - t - 1) *
                  static_cast<double>(t) * pbar;
  return result;
}

}  // namespace flowrank::core
