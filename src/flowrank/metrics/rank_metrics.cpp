#include "flowrank/metrics/rank_metrics.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace flowrank::metrics {

namespace {

/// True if a pair with distinct true sizes is swapped under the policy.
/// `s_big` samples the larger flow, `s_small` the smaller one.
bool swapped_distinct(std::uint64_t s_big, std::uint64_t s_small, TiePolicy policy) {
  if (policy == TiePolicy::kPaper) return s_big <= s_small;
  // Lenient: only a strict inversion, or both flows lost entirely.
  return s_big < s_small || (s_big == 0 && s_small == 0);
}

/// True if a pair with equal true sizes is swapped under the policy.
bool swapped_equal(std::uint64_t sa, std::uint64_t sb, TiePolicy policy) {
  if (policy == TiePolicy::kPaper) return sa != sb || sa == 0;
  return sa == 0 && sb == 0;
}

}  // namespace

RankMetricsContext::RankMetricsContext(std::span<const std::uint64_t> true_sizes,
                                       std::size_t t)
    : n_(true_sizes.size()), t_(t) {
  if (n_ == 0 || t_ < 1 || t_ > n_) {
    throw std::invalid_argument("RankMetricsContext: requires 1 <= t <= N");
  }

  // True ranking: size descending, index ascending. Only the top t and
  // the flows tying the t-th size are ever read, so select those and
  // order just them.
  const auto before = [&](std::uint32_t a, std::uint32_t b) {
    if (true_sizes[a] != true_sizes[b]) return true_sizes[a] > true_sizes[b];
    return a < b;
  };
  order_.resize(n_);
  std::iota(order_.begin(), order_.end(), 0u);
  const auto tth = order_.begin() + static_cast<std::ptrdiff_t>(t_ - 1);
  std::nth_element(order_.begin(), tth, order_.end(), before);
  const std::uint64_t cut = true_sizes[*tth];
  order_.erase(std::partition(tth + 1, order_.end(),
                              [&](std::uint32_t i) { return true_sizes[i] == cut; }),
               order_.end());
  std::sort(order_.begin(), order_.end(), before);

  // Extent of each top-t position's equal-true-size run (contiguous in
  // order_, so positions sharing a run share the end).
  equal_run_end_.resize(t_);
  for (std::size_t r = 0; r < t_; ++r) {
    const std::uint64_t size_r = true_sizes[order_[r]];
    if (r > 0 && true_sizes[order_[r - 1]] == size_r) {
      equal_run_end_[r] = equal_run_end_[r - 1];
      continue;
    }
    std::size_t q = r + 1;
    while (q < order_.size() && true_sizes[order_[q]] == size_r) ++q;
    equal_run_end_[r] = static_cast<std::uint32_t>(q);
  }

  const double nd = static_cast<double>(n_);
  const double td = static_cast<double>(t_);
  ranking_pairs_ = 0.5 * (2.0 * nd - td - 1.0) * td;
  detection_pairs_ = td * (nd - td);
}

RankMetricsResult RankMetricsContext::evaluate(
    std::span<const std::uint64_t> sampled_sizes, TiePolicy policy) {
  if (sampled_sizes.size() != n_) {
    throw std::invalid_argument("RankMetricsContext: size mismatch");
  }

  // Thresholds: the distinct samples of the true top-t rows.
  thresholds_.resize(t_);
  for (std::size_t r = 0; r < t_; ++r) thresholds_[r] = sampled_sizes[order_[r]];
  std::sort(thresholds_.begin(), thresholds_.end());
  thresholds_.erase(std::unique(thresholds_.begin(), thresholds_.end()), thresholds_.end());
  const std::size_t k = thresholds_.size();
  const std::uint64_t lowest = thresholds_.front();
  at_or_above_.assign(k, 0);
  equal_.assign(k, 0);

  // One sequential pass. Each sample at or above the lowest threshold is
  // counted under the highest threshold it reaches (suffix-summed below
  // into ">= threshold") and, on a match, as equal to it. The same pass
  // keeps the sampled top-t for recall: a heap of the t best by (sample
  // descending, index ascending), worst in front. Indices arrive in
  // ascending order, so only a strictly larger sample displaces the
  // worst.
  const auto better = [](const Ranked& a, const Ranked& b) {
    if (a.sample != b.sample) return a.sample > b.sample;
    return a.index < b.index;
  };
  heap_.clear();
  for (std::size_t i = 0; i < t_; ++i) {
    heap_.push_back(Ranked{sampled_sizes[i], static_cast<std::uint32_t>(i)});
  }
  std::make_heap(heap_.begin(), heap_.end(), better);
  std::uint64_t worst = heap_.front().sample;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t s = sampled_sizes[i];
    if (s >= lowest) {
      const std::size_t m =
          s == lowest ? 0
                      : static_cast<std::size_t>(
                            std::upper_bound(thresholds_.begin() + 1, thresholds_.end(), s) -
                            thresholds_.begin()) - 1;
      ++at_or_above_[m];
      if (thresholds_[m] == s) ++equal_[m];
    }
    if (i >= t_ && s > worst) {
      std::pop_heap(heap_.begin(), heap_.end(), better);
      heap_.back() = Ranked{s, static_cast<std::uint32_t>(i)};
      std::push_heap(heap_.begin(), heap_.end(), better);
      worst = heap_.front().sample;
    }
  }

  // Take the top rows back out, leaving counts over the outside flows.
  row_threshold_.resize(t_);
  for (std::size_t r = 0; r < t_; ++r) {
    const std::uint64_t s = sampled_sizes[order_[r]];
    const auto m = static_cast<std::uint32_t>(
        std::lower_bound(thresholds_.begin(), thresholds_.end(), s) - thresholds_.begin());
    row_threshold_[r] = m;
    --at_or_above_[m];
    --equal_[m];
  }
  for (std::size_t m = k - 1; m-- > 0;) at_or_above_[m] += at_or_above_[m + 1];

  double ranking_swapped = 0.0;
  double detection_swapped = 0.0;

  for (std::size_t r = 0; r < t_; ++r) {
    const std::uint64_t s_i = sampled_sizes[order_[r]];
    const std::uint32_t m = row_threshold_[r];

    // Outside flows by the distinct-size rule: samples >= s_i; lenient
    // drops the ties, except that every pair counts when s_i = 0.
    std::uint64_t outside = at_or_above_[m];
    if (policy == TiePolicy::kLenient && s_i != 0) outside -= equal_[m];
    double detection = static_cast<double>(outside);

    // Outside flows whose TRUE size equals row r's (the run tying the
    // t-th true size) take the equal-size rule instead.
    for (std::size_t q = t_; q < equal_run_end_[r]; ++q) {
      const std::uint64_t s_j = sampled_sizes[order_[q]];
      const bool counted = swapped_distinct(s_i, s_j, policy);
      const bool correct = swapped_equal(s_i, s_j, policy);
      detection += static_cast<double>(correct) - static_cast<double>(counted);
    }

    // Top-vs-top pairs, scored directly: they count for ranking only.
    double top_top = 0.0;
    for (std::size_t q = r + 1; q < t_; ++q) {
      const std::uint64_t s_j = sampled_sizes[order_[q]];
      const bool swapped = q < equal_run_end_[r] ? swapped_equal(s_i, s_j, policy)
                                                 : swapped_distinct(s_i, s_j, policy);
      if (swapped) top_top += 1.0;
    }
    ranking_swapped += detection + top_top;
    detection_swapped += detection;
  }

  // Recall: a true top row is in the sampled top-t iff it ranks at or
  // above the heap's worst entry.
  const Ranked cutoff = heap_.front();
  std::size_t hits = 0;
  for (std::size_t r = 0; r < t_; ++r) {
    const Ranked row{sampled_sizes[order_[r]], order_[r]};
    if (!better(cutoff, row)) ++hits;
  }

  RankMetricsResult result;
  result.ranking_swapped = ranking_swapped;
  result.detection_swapped = detection_swapped;
  result.ranking_pairs = ranking_pairs_;
  result.detection_pairs = detection_pairs_;
  result.top_set_recall = static_cast<double>(hits) / static_cast<double>(t_);
  return result;
}

RankMetricsResult compute_rank_metrics(std::span<const std::uint64_t> true_sizes,
                                       std::span<const std::uint64_t> sampled_sizes,
                                       std::size_t t, TiePolicy policy) {
  if (sampled_sizes.size() != true_sizes.size()) {
    throw std::invalid_argument("compute_rank_metrics: size mismatch");
  }
  RankMetricsContext context(true_sizes, t);
  return context.evaluate(sampled_sizes, policy);
}

}  // namespace flowrank::metrics
