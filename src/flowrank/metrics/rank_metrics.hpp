// The paper's swapped-pair performance metrics, computed on realizations.
//
// Given each flow's true size and sampled size, we count:
//  * ranking metric (Sec. 5.1): swapped pairs whose first element is a
//    true top-t flow and whose second element is any other flow
//    ((2N-t-1)t/2 pairs in total);
//  * detection metric (Sec. 7.1): swapped pairs whose first element is a
//    true top-t flow and whose second element is outside the top-t
//    (t(N-t) pairs).
//
// A pair of distinct true sizes S_i > S_j counts as swapped when the
// sampled sizes satisfy s_i <= s_j — sampled ties count as swaps, exactly
// the Pm(S1,S2) = P{s_small >= s_big} convention of Sec. 3. Pairs of equal
// true size count as swapped unless both sampled sizes are equal and
// non-zero (Sec. 3's equal-size convention). A lenient policy (ties are
// fine) is provided for sensitivity analysis.
//
// The Monte-Carlo sweeps evaluate the same true population against
// hundreds of sampled realizations (one per run). Everything that depends
// only on (true_sizes, t) — the true top-t rows in order, the extents of
// equal-true-size runs, the pair-count denominators — is therefore hoisted
// into RankMetricsContext, built once per bin; evaluate() then scores a
// realization with one sequential pass over the sampled sizes.
// compute_rank_metrics() remains as the one-shot convenience (build a
// context, evaluate once).
//
// Only the t top rows are ever scored, so evaluate() counts against
// thresholds instead of ordering the population. Row r's swaps with the
// flows outside the true top-t are, by the distinct-size rule, the
// outside flows whose sample is >= s_r (> s_r, or all of them when
// s_r = 0, under the lenient policy). The pass places every sample among
// the <= t distinct top-row samples and counts ">=" and "=" per
// threshold; subtracting the top rows' own counts leaves the outside
// counts. Outside flows of equal true size — the run tying the t-th true
// size — are then rescored by the equal-size rule, and the top-vs-top
// pairs are scored directly. The outside count is row r's detection term;
// adding the top-vs-top term gives its ranking term. The same pass keeps
// a bounded heap of the sampled top-t for recall.
//
// Complexity: evaluate() is O(N log t + t² + t·E), where E is the length
// of the true-size run at the t-th flow; construction is O(N) for the
// selection plus a sort of the true top-t and that run, paid once.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace flowrank::metrics {

/// How sampled-size ties between distinct-size flows are scored.
enum class TiePolicy {
  kPaper,    ///< tie counts as a swap (the paper's convention)
  kLenient,  ///< tie is not a swap unless both flows vanished (size 0)
};

/// Output of one metric evaluation.
struct RankMetricsResult {
  double ranking_swapped = 0.0;    ///< swapped pairs, ranking definition
  double detection_swapped = 0.0;  ///< swapped pairs, detection definition
  double ranking_pairs = 0.0;      ///< (2N-t-1) t / 2
  double detection_pairs = 0.0;    ///< t (N-t)
  double top_set_recall = 0.0;     ///< |true top-t ∩ sampled top-t| / t
};

/// Run-invariant state of one (true_sizes, t) population, reusable across
/// any number of sampled realizations.
///
/// Not safe for concurrent evaluate() calls on the same instance (it owns
/// reusable scratch buffers); give each worker its own context.
class RankMetricsContext {
 public:
  /// Copies what it needs from `true_sizes`; the span need not outlive
  /// the context. Requires N >= 1 and 1 <= t <= N; throws
  /// std::invalid_argument otherwise. The true top-t is chosen by size
  /// descending with index ascending as the deterministic tie-break.
  RankMetricsContext(std::span<const std::uint64_t> true_sizes, std::size_t t);

  /// Scores one sampled realization against the fixed true population.
  /// `sampled_sizes[i]` must describe the same flow i the context's
  /// `true_sizes[i]` did; throws std::invalid_argument on a length
  /// mismatch. Identical output to compute_rank_metrics() on the same
  /// inputs.
  [[nodiscard]] RankMetricsResult evaluate(
      std::span<const std::uint64_t> sampled_sizes,
      TiePolicy policy = TiePolicy::kPaper);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t t() const noexcept { return t_; }

 private:
  std::size_t n_ = 0;
  std::size_t t_ = 0;
  /// Flow indices in true order (size descending, index ascending) for
  /// the top t and every later flow that ties the t-th true size.
  std::vector<std::uint32_t> order_;
  /// equal_run_end_[r] (r < t): one past the last position whose true size
  /// equals position r's — equal-true-size runs are contiguous in order_.
  std::vector<std::uint32_t> equal_run_end_;
  double ranking_pairs_ = 0.0;    ///< (2N-t-1) t / 2
  double detection_pairs_ = 0.0;  ///< t (N-t)

  /// One entry of the sampled top-t heap, kept as (sample, flow index).
  struct Ranked {
    std::uint64_t sample = 0;
    std::uint32_t index = 0;
  };

  // Per-evaluate scratch, reused across runs to keep the sweep hot loop
  // allocation-free after the first evaluation.
  std::vector<std::uint64_t> thresholds_;  ///< distinct top-row samples, ascending
  std::vector<std::uint32_t> row_threshold_;  ///< top row r's index in thresholds_
  /// Outside flows (not true top-t) whose sample is >= each threshold.
  std::vector<std::uint64_t> at_or_above_;
  std::vector<std::uint64_t> equal_;  ///< outside flows whose sample == threshold
  std::vector<Ranked> heap_;          ///< sampled top-t, worst in front
};

/// Computes all metrics for one realization (one-shot: builds a context
/// and evaluates once — callers scoring many realizations of the same
/// true population should hold a RankMetricsContext instead).
///
/// `true_sizes[i]` and `sampled_sizes[i]` describe flow i. Requires equal
/// lengths, N >= 1 and 1 <= t <= N; throws std::invalid_argument otherwise.
/// The true top-t is chosen by size descending with index ascending as the
/// deterministic tie-break (and the same rule on sampled sizes for recall).
[[nodiscard]] RankMetricsResult compute_rank_metrics(
    std::span<const std::uint64_t> true_sizes,
    std::span<const std::uint64_t> sampled_sizes, std::size_t t,
    TiePolicy policy = TiePolicy::kPaper);

}  // namespace flowrank::metrics
