// Descriptive statistics.
//
// RunningStats backs the multi-run simulation aggregates (mean ± stddev per
// bin, exactly what Figs. 12-16 plot).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace flowrank::numeric {

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 when fewer than 2 samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Merges another accumulator (parallel Welford).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical quantile (linear interpolation between order statistics).
/// q in [0,1]; data need not be sorted. Throws on empty input.
[[nodiscard]] double quantile(std::span<const double> data, double q);

/// Kendall rank correlation tau-a over paired observations, counting ties
/// as discordant-neutral: tau = (C - D) / (n(n-1)/2). O(n^2) on ties-heavy
/// data is avoided with a merge-sort inversion count on the untied part.
[[nodiscard]] double kendall_tau(std::span<const double> x, std::span<const double> y);

}  // namespace flowrank::numeric
