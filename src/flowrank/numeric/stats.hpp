// Descriptive statistics.
//
// RunningStats backs the multi-run simulation aggregates (mean ± stddev per
// bin, exactly what Figs. 12-16 plot).
#pragma once

#include <cstddef>

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

}  // namespace flowrank::numeric
