// Build-once compute context for the exact discrete ranking model.
//
// The expensive part of Eq. (3) — the triangular pairwise-misranking
// table Pm(small, large) plus the equal-size diagonal, and their pmf-
// weighted partial sums A_i / B_i — depends only on (size pmf, p,
// max_size, pairwise flavor). It is independent of both the population N
// and the list size t. DiscreteModelContext builds all of it once; every
// (n, t) evaluation afterwards is an O(S) fold of cached sums against two
// binomial cdf terms per support point, so a whole (n, t) sweep costs one
// table build plus near-free marginal cells.
//
// Determinism contract (the repo's standing rule): the table rows are
// independent, so they are built on the shared exec::TaskPool, but the
// per-row arithmetic is sequential and uses exactly the same seed,
// recurrence and summation order as the historical single-threaded
// implementation — results are bit-identical at any thread count and to
// the pre-context code. One deliberate exception: a Bin(s, p) row whose
// k = 0 seed (1-p)^s is below DBL_MIN (s > ~708/|ln(1-p)|: s > ~236 at
// p = 0.95, s > ~114 at p = 0.998) is anchored at its mode in log space
// instead, because recurring from the underflowed seed zeroed the whole
// row (Pm(i, i) read 1, Pm between two such sizes 0) and made the metric
// a sawtooth in p. Rows with a normal seed keep the old arithmetic bit
// for bit, so results at low p (the goldens) are unchanged and results
// at high p are now correct. The one stream-changing knob, the support-
// windowed k-sum, is OFF by default and gated behind window_tolerance
// (PR 3 / PR 9 precedent), with its approximation error bounded below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "flowrank/core/discrete_model.hpp"
#include "flowrank/dist/discretized.hpp"

namespace flowrank::core {

/// The (n, t)-independent part of DiscreteModelConfig: everything the
/// pairwise tables are keyed on.
struct DiscreteContextConfig {
  double p = 0.0;  ///< sampling rate, in (0,1)
  std::shared_ptr<const dist::Discretized> size_pmf;
  /// Hard cap on the summed size support; the pmf tail beyond it must be
  /// negligible. Throws if the tail mass above it exceeds tail_tolerance.
  std::int64_t max_size = 4096;
  double tail_tolerance = 1e-6;
  /// Use the Gaussian Pm instead of the exact Eq. (1) inside Eq. (3) —
  /// isolates discretization error from Gaussian-approximation error.
  bool gaussian_pairwise = false;
  /// Gated approximation: when > 0, each Eq. (1) k-sum is restricted to
  /// the central window of Bin(small, p) that leaves at most
  /// window_tolerance pmf mass outside (half in each tail). 0 (the
  /// default) keeps the full-range exact sums — the canonical stream.
  /// The induced error is one-sided (the sum only loses non-negative
  /// terms): per pair at most window_tolerance before clamping, hence at
  /// most 2 * window_tolerance * N / t on mean_pair_misranking.
  double window_tolerance = 0.0;
  /// Table-build parallelism on the shared exec::TaskPool (0 = all
  /// hardware threads). Never changes results — see the determinism
  /// contract above.
  std::size_t num_threads = 1;
};

/// The reusable tables. Immutable once built; evaluate() is const and
/// thread-safe, so one context can serve concurrent sweep cells.
class DiscreteModelContext {
 public:
  /// Builds the pairwise table and reduces it to the per-size partial
  /// sums. Throws std::invalid_argument on config errors (missing pmf,
  /// p outside (0,1), support cap too small or tail above tolerance).
  explicit DiscreteModelContext(const DiscreteContextConfig& config);

  /// Eq. (3) fold over the cached sums: O(S) binomial cdf evaluations.
  /// Throws std::invalid_argument unless 1 <= t <= n.
  [[nodiscard]] DiscreteModelResult evaluate(std::int64_t n, std::int64_t t) const;

  [[nodiscard]] double p() const noexcept { return p_; }
  [[nodiscard]] std::int64_t min_size() const noexcept { return lo_; }
  [[nodiscard]] std::int64_t max_size() const noexcept { return hi_; }
  [[nodiscard]] bool windowed() const noexcept { return window_tolerance_ > 0.0; }

  /// Cached reductions, indexed by size - min_size() — the determinism
  /// tests compare these across thread counts bit for bit.
  /// A_i = sum_{j < i} pmf(j) Pm(j, i):
  [[nodiscard]] const std::vector<double>& smaller_pair_sums() const noexcept {
    return a_sum_;
  }
  /// B_i = pmf(i) Pm(i, i) + sum_{j > i} pmf(j) Pm(i, j):
  [[nodiscard]] const std::vector<double>& larger_pair_sums() const noexcept {
    return b_sum_;
  }

 private:
  double p_ = 0.0;
  double window_tolerance_ = 0.0;
  std::int64_t lo_ = 0;  ///< smallest size with positive mass
  std::int64_t hi_ = 0;  ///< support cap (config.max_size)
  std::vector<double> pmf_, ccdf_;    ///< size pmf / P{size >= i} rows
  std::vector<double> a_sum_, b_sum_;  ///< Eq. (3) partial sums
};

}  // namespace flowrank::core
