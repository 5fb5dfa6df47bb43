#include "flowrank/numeric/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace flowrank::numeric {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(n_ + other.n_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ +
         delta * delta * static_cast<double>(n_) * static_cast<double>(other.n_) / total;
  mean_ += delta * static_cast<double>(other.n_) / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double quantile(std::span<const double> data, double q) {
  if (data.empty()) throw std::invalid_argument("quantile: empty data");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("quantile: q in [0,1]");
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

namespace {

// Counts inversions of `v` via merge sort; O(n log n).
std::size_t count_inversions(std::vector<double>& v) {
  const std::size_t n = v.size();
  if (n < 2) return 0;
  std::vector<double> buffer(n);
  std::size_t inversions = 0;
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t lo = 0; lo + width < n; lo += 2 * width) {
      const std::size_t mid = lo + width;
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::size_t i = lo, j = mid, k = lo;
      while (i < mid && j < hi) {
        if (v[i] <= v[j]) {
          buffer[k++] = v[i++];
        } else {
          inversions += mid - i;
          buffer[k++] = v[j++];
        }
      }
      while (i < mid) buffer[k++] = v[i++];
      while (j < hi) buffer[k++] = v[j++];
      std::copy(buffer.begin() + static_cast<std::ptrdiff_t>(lo),
                buffer.begin() + static_cast<std::ptrdiff_t>(hi),
                v.begin() + static_cast<std::ptrdiff_t>(lo));
    }
  }
  return inversions;
}

}  // namespace

double kendall_tau(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("kendall_tau: size mismatch");
  }
  const std::size_t n = x.size();
  if (n < 2) throw std::invalid_argument("kendall_tau: need at least 2 pairs");
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (x[a] != x[b]) return x[a] < x[b];
    return y[a] < y[b];
  });
  // After sorting by x, discordant pairs among x-distinct entries are
  // inversions in y. Pairs tied in x or tied in y count as neither
  // concordant nor discordant (numerator only: tau-a with tie-neutrality).
  std::vector<double> y_sorted(n);
  for (std::size_t i = 0; i < n; ++i) y_sorted[i] = y[order[i]];

  // Count pairs tied in x and pairs tied in both.
  std::size_t tied_x_pairs = 0;
  {
    std::size_t run = 1;
    for (std::size_t i = 1; i <= n; ++i) {
      if (i < n && x[order[i]] == x[order[i - 1]]) {
        ++run;
      } else {
        tied_x_pairs += run * (run - 1) / 2;
        run = 1;
      }
    }
  }
  std::size_t tied_y_pairs = 0;
  {
    std::vector<double> ys(y.begin(), y.end());
    std::sort(ys.begin(), ys.end());
    std::size_t run = 1;
    for (std::size_t i = 1; i <= n; ++i) {
      if (i < n && ys[i] == ys[i - 1]) {
        ++run;
      } else {
        tied_y_pairs += run * (run - 1) / 2;
        run = 1;
      }
    }
  }
  // Inversions in y (ties in y sorted stably do not create inversions since
  // we use <=; ties within x-groups were ordered by y so they are already
  // ascending and contribute none).
  std::vector<double> work = y_sorted;
  const std::size_t discordant = count_inversions(work);
  const double total_pairs = 0.5 * static_cast<double>(n) * static_cast<double>(n - 1);
  // Concordant = total - discordant - ties (counting each tied pair once).
  // Pairs tied in both x and y are inside tied_x_pairs; avoid double count by
  // the inclusion below being approximate only when both-tied pairs exist in
  // different groups, which cannot happen (both-tied implies same x).
  const double tie_pairs = static_cast<double>(tied_x_pairs + tied_y_pairs);
  double concordant =
      total_pairs - static_cast<double>(discordant) - tie_pairs;
  if (concordant < 0.0) concordant = 0.0;  // overlapping tie classes
  return (concordant - static_cast<double>(discordant)) / total_pairs;
}

}  // namespace flowrank::numeric
