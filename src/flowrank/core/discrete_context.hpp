// Build-once compute context for the exact discrete ranking model.
//
// The expensive part of Eq. (3) — the pmf-weighted partial sums A_i / B_i
// of the pairwise misranking probabilities Pm(small, large) and the
// equal-size diagonal — depends only on (size pmf, p, max_size, pairwise
// flavor). It is independent of both the population N and the list size
// t. DiscreteModelContext builds the sums once; every (n, t) evaluation
// afterwards is an O(S) fold of cached sums against two binomial cdf
// terms per support point, so a whole (n, t) sweep costs one build plus
// near-free marginal cells.
//
// The fold itself splits once more. Its per-size weights, the top-t
// probabilities Pt(i, t, N-1) and Pt(i, t-1, N-1) (two binomial cdfs over
// N-2 trials at P{size >= i}), depend on (size pmf, max_size, n, t) and
// not on p: DiscreteTopWeights holds them, so a rate search computes them
// once per query and each probe's evaluate() is one multiply-add per size.
//
// The exact flavor never forms a pairwise table. Eq. (1) is a k-sum,
// Pm(j, i) = sum_k b(k, j) C_i(k) with C_i the clamped Bin(i, p) cdf, and
// swapping it with the pmf-weighted j-sum turns each partial sum into one
// dot product against a running prefix over j (see discrete_context.cpp):
// O(S^2) time and O(S) memory instead of O(S^3) and three packed
// triangles.
//
// Determinism contract (the repo's standing rule): the canonical stream
// is this interchanged order. The A and B passes each run sequentially,
// with a fixed order of every addition, so results are bit-identical at
// any thread count (with num_threads >= 2 the two passes are two pool
// tasks). The Gaussian flavor computes each pair on the fly in the
// pairwise order it always had, so it is bit-identical to the earlier
// table build. The pmf rows keep their seed and recurrence: a Bin(s, p)
// row whose k = 0 seed (1-p)^s is below DBL_MIN (s > ~708/|ln(1-p)|:
// s > ~236 at p = 0.95, s > ~114 at p = 0.998) is anchored at its mode in
// log space instead, because recurring from the underflowed seed zeroed
// the whole row and made the metric a sawtooth in p.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "flowrank/core/discrete_model.hpp"
#include "flowrank/dist/discretized.hpp"

namespace flowrank::core {

/// The (n, t)-independent part of DiscreteModelConfig: everything the
/// partial sums are keyed on.
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
  /// Build parallelism on the shared exec::TaskPool (0 = all hardware
  /// threads); the exact flavor uses at most two. Never changes results —
  /// see the determinism contract above.
  std::size_t num_threads = 1;
};

/// The context key of a one-shot config, with
/// evaluate_discrete_ranking_model's checks in its order: throws
/// std::invalid_argument without a size pmf or unless 1 <= t <= n.
[[nodiscard]] DiscreteContextConfig discrete_context_config(const DiscreteModelConfig& config);

class DiscreteModelContext;

/// The p-independent weights of the Eq. (3) fold at one (n, t), per
/// support size of one context's pmf and support cap: valid for every
/// context built from the same pmf object and max_size, at any p.
class DiscreteTopWeights {
 public:
  [[nodiscard]] std::int64_t n() const noexcept { return n_; }
  [[nodiscard]] std::int64_t t() const noexcept { return t_; }

 private:
  friend class DiscreteModelContext;
  std::shared_ptr<const dist::Discretized> source_;  ///< the pmf they were made for
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
  std::int64_t n_ = 0;
  std::int64_t t_ = 0;
  /// Pt(i, t, N-1) and Pt(i, t-1, N-1) by size - lo; 0 where the pmf is.
  std::vector<double> pt_t_, pt_tm1_;
};

/// The reusable partial sums. Immutable once built; evaluate() is const
/// and thread-safe, so one context can serve concurrent sweep cells.
class DiscreteModelContext {
 public:
  /// Builds the per-size partial sums. Throws std::invalid_argument on
  /// config errors (missing pmf, p outside (0,1), support cap too small
  /// or tail above tolerance).
  explicit DiscreteModelContext(const DiscreteContextConfig& config);

  /// Eq. (3) fold over the cached sums: evaluate(top_weights(n, t)).
  /// Throws std::invalid_argument unless 1 <= t <= n.
  [[nodiscard]] DiscreteModelResult evaluate(std::int64_t n, std::int64_t t) const;

  /// The fold's weights at (n, t): O(S) binomial cdf evaluations, none
  /// of which depends on p. Throws std::invalid_argument unless
  /// 1 <= t <= n.
  [[nodiscard]] DiscreteTopWeights top_weights(std::int64_t n, std::int64_t t) const;

  /// Eq. (3) fold over the cached sums with precomputed weights, bit for
  /// bit evaluate(weights.n(), weights.t()). Throws std::invalid_argument
  /// unless the weights were made for this context's pmf and support.
  [[nodiscard]] DiscreteModelResult evaluate(const DiscreteTopWeights& weights) const;

  [[nodiscard]] double p() const noexcept { return p_; }
  [[nodiscard]] std::int64_t min_size() const noexcept { return lo_; }
  [[nodiscard]] std::int64_t max_size() const noexcept { return hi_; }

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
  /// The pmf, held so that a weights check by identity cannot meet a
  /// reused address.
  std::shared_ptr<const dist::Discretized> source_;
  std::int64_t lo_ = 0;  ///< smallest size with positive mass
  std::int64_t hi_ = 0;  ///< support cap (config.max_size)
  std::vector<double> pmf_, ccdf_;    ///< size pmf / P{size >= i} rows
  std::vector<double> a_sum_, b_sum_;  ///< Eq. (3) partial sums
};

}  // namespace flowrank::core
