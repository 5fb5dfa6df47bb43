// Tests for the swapped-pair metrics: brute-force cross-checks, tie
// conventions, and consistency with the two-flow model.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/core/misranking.hpp"
#include "flowrank/metrics/rank_metrics.hpp"
#include "flowrank/util/binomial_sample.hpp"
#include "flowrank/util/rng.hpp"

namespace fm = flowrank::metrics;

namespace {

/// O(t*N) reference implementation straight from the definitions.
fm::RankMetricsResult brute_force(const std::vector<std::uint64_t>& true_sizes,
                                  const std::vector<std::uint64_t>& sampled,
                                  std::size_t t, fm::TiePolicy policy) {
  const std::size_t n = true_sizes.size();
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (true_sizes[a] != true_sizes[b]) return true_sizes[a] > true_sizes[b];
    return a < b;
  });
  const auto swapped = [&](std::uint32_t i, std::uint32_t j) {
    if (true_sizes[i] == true_sizes[j]) {
      if (policy == fm::TiePolicy::kPaper) {
        return sampled[i] != sampled[j] || sampled[i] == 0;
      }
      return sampled[i] == 0 && sampled[j] == 0;
    }
    const auto big = true_sizes[i] > true_sizes[j] ? i : j;
    const auto small = big == i ? j : i;
    if (policy == fm::TiePolicy::kPaper) return sampled[big] <= sampled[small];
    return sampled[big] < sampled[small] ||
           (sampled[big] == 0 && sampled[small] == 0);
  };
  fm::RankMetricsResult out;
  for (std::size_t r = 0; r < t; ++r) {
    for (std::size_t q = r + 1; q < n; ++q) {
      if (swapped(order[r], order[q])) {
        out.ranking_swapped += 1.0;
        if (q >= t) out.detection_swapped += 1.0;
      }
    }
  }
  return out;
}

/// Recall straight from the definition: full sorts of both orders, each
/// by size descending with index ascending.
double brute_force_recall(const std::vector<std::uint64_t>& true_sizes,
                          const std::vector<std::uint64_t>& sampled, std::size_t t) {
  const auto top = [t](const std::vector<std::uint64_t>& sizes) {
    std::vector<std::uint32_t> order(sizes.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (sizes[a] != sizes[b]) return sizes[a] > sizes[b];
      return a < b;
    });
    order.resize(t);
    std::sort(order.begin(), order.end());
    return order;
  };
  const auto want = top(true_sizes);
  const auto got = top(sampled);
  std::vector<std::uint32_t> both;
  std::set_intersection(want.begin(), want.end(), got.begin(), got.end(),
                        std::back_inserter(both));
  return static_cast<double>(both.size()) / static_cast<double>(t);
}

}  // namespace

TEST(RankMetrics, PerfectSamplingHasNoSwaps) {
  std::vector<std::uint64_t> sizes{100, 90, 80, 5, 4, 3, 2, 1};
  const auto r = fm::compute_rank_metrics(sizes, sizes, 3);
  EXPECT_DOUBLE_EQ(r.ranking_swapped, 0.0);
  EXPECT_DOUBLE_EQ(r.detection_swapped, 0.0);
  EXPECT_DOUBLE_EQ(r.top_set_recall, 1.0);
}

TEST(RankMetrics, PairCountsMatchPaperFormulas) {
  std::vector<std::uint64_t> sizes(100);
  for (std::size_t i = 0; i < sizes.size(); ++i) sizes[i] = 1000 - i;
  for (std::size_t t : {1u, 5u, 25u}) {
    const auto r = fm::compute_rank_metrics(sizes, sizes, t);
    EXPECT_DOUBLE_EQ(r.ranking_pairs, 0.5 * (2.0 * 100 - t - 1.0) * t);
    EXPECT_DOUBLE_EQ(r.detection_pairs, static_cast<double>(t) * (100.0 - t));
  }
}

TEST(RankMetrics, SingleSwapWithNeighborCountsOne) {
  // Paper Sec. 5.1: a flow swapped with its immediate successor gives a
  // ranking error of 1.
  std::vector<std::uint64_t> true_sizes{50, 40, 30, 20, 10};
  std::vector<std::uint64_t> sampled{50, 29, 31, 20, 10};  // swap ranks 2,3
  const auto r = fm::compute_rank_metrics(true_sizes, sampled, 5);
  EXPECT_DOUBLE_EQ(r.ranking_swapped, 1.0);
}

TEST(RankMetrics, DistantSwapPenalizedMore) {
  // Same flow swapped with a distant flow produces many swapped pairs.
  std::vector<std::uint64_t> true_sizes{50, 40, 30, 20, 10};
  std::vector<std::uint64_t> sampled{50, 9, 30, 20, 41};  // rank-2 <-> rank-5
  const auto near_r = fm::compute_rank_metrics(
      true_sizes, std::vector<std::uint64_t>{50, 29, 31, 20, 10}, 5);
  const auto far_r = fm::compute_rank_metrics(true_sizes, sampled, 5);
  EXPECT_GT(far_r.ranking_swapped, near_r.ranking_swapped);
}

TEST(RankMetrics, VanishedFlowsCountAsSwapped) {
  std::vector<std::uint64_t> true_sizes{50, 40, 30};
  std::vector<std::uint64_t> sampled{0, 0, 0};
  const auto r = fm::compute_rank_metrics(true_sizes, sampled, 1);
  // Pairs (1,2) and (1,3): all zero ties count as swapped under kPaper.
  EXPECT_DOUBLE_EQ(r.ranking_swapped, 2.0);
  const auto lenient =
      fm::compute_rank_metrics(true_sizes, sampled, 1, fm::TiePolicy::kLenient);
  EXPECT_DOUBLE_EQ(lenient.ranking_swapped, 2.0);  // both-zero also swaps
}

TEST(RankMetrics, LenientPolicyForgivesNonZeroTies) {
  std::vector<std::uint64_t> true_sizes{50, 40};
  std::vector<std::uint64_t> sampled{7, 7};
  EXPECT_DOUBLE_EQ(fm::compute_rank_metrics(true_sizes, sampled, 1).ranking_swapped,
                   1.0);
  EXPECT_DOUBLE_EQ(
      fm::compute_rank_metrics(true_sizes, sampled, 1, fm::TiePolicy::kLenient)
          .ranking_swapped,
      0.0);
}

TEST(RankMetrics, EqualTrueSizesUseEqualConvention) {
  std::vector<std::uint64_t> true_sizes{50, 50};
  // Equal flows, equal non-zero samples: correctly ranked.
  EXPECT_DOUBLE_EQ(fm::compute_rank_metrics(true_sizes,
                                            std::vector<std::uint64_t>{3, 3}, 1)
                       .ranking_swapped,
                   0.0);
  // Different samples: swapped.
  EXPECT_DOUBLE_EQ(fm::compute_rank_metrics(true_sizes,
                                            std::vector<std::uint64_t>{3, 4}, 1)
                       .ranking_swapped,
                   1.0);
  // Both zero: swapped.
  EXPECT_DOUBLE_EQ(fm::compute_rank_metrics(true_sizes,
                                            std::vector<std::uint64_t>{0, 0}, 1)
                       .ranking_swapped,
                   1.0);
}

TEST(RankMetrics, RecallCountsSetOverlapOnly) {
  std::vector<std::uint64_t> true_sizes{100, 90, 80, 70, 1, 2};
  // Top-4 preserved as a set but fully reordered.
  std::vector<std::uint64_t> sampled{70, 80, 90, 100, 1, 2};
  const auto r = fm::compute_rank_metrics(true_sizes, sampled, 4);
  EXPECT_DOUBLE_EQ(r.top_set_recall, 1.0);
  EXPECT_GT(r.ranking_swapped, 0.0);
  EXPECT_DOUBLE_EQ(r.detection_swapped, 0.0);
}

TEST(RankMetrics, MatchesBruteForceOnRandomInstances) {
  auto engine = flowrank::util::make_engine(97);
  std::uniform_int_distribution<std::uint64_t> size_dist(0, 60);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 5 + trial % 60;
    const std::size_t t = 1 + trial % std::min<std::size_t>(n, 12);
    std::vector<std::uint64_t> true_sizes(n), sampled(n);
    for (std::size_t i = 0; i < n; ++i) {
      true_sizes[i] = size_dist(engine) + 1;
      sampled[i] = size_dist(engine) / 3;
    }
    for (auto policy : {fm::TiePolicy::kPaper, fm::TiePolicy::kLenient}) {
      const auto fast = fm::compute_rank_metrics(true_sizes, sampled, t, policy);
      const auto slow = brute_force(true_sizes, sampled, t, policy);
      EXPECT_DOUBLE_EQ(fast.ranking_swapped, slow.ranking_swapped)
          << "trial " << trial << " t=" << t
          << " policy=" << static_cast<int>(policy);
      EXPECT_DOUBLE_EQ(fast.detection_swapped, slow.detection_swapped)
          << "trial " << trial << " t=" << t;
    }
  }
}

TEST(RankMetrics, MatchesTwoFlowModelInExpectation) {
  // For N=2, t=1 the expected ranking metric IS Pm(S1,S2) from Eq. (1).
  auto engine = flowrank::util::make_engine(31);
  const double p = 0.15;
  const std::uint64_t s1 = 40, s2 = 70;
  std::binomial_distribution<std::uint64_t> b1(s1, p), b2(s2, p);
  double swaps = 0.0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    std::vector<std::uint64_t> true_sizes{s2, s1};
    std::vector<std::uint64_t> sampled{b2(engine), b1(engine)};
    swaps +=
        fm::compute_rank_metrics(true_sizes, sampled, 1).ranking_swapped;
  }
  const double empirical = swaps / trials;
  const double exact = flowrank::core::misranking_exact(40, 70, p);
  EXPECT_NEAR(empirical, exact, 0.01);
}

TEST(RankMetrics, InvalidArguments) {
  std::vector<std::uint64_t> a{1, 2, 3}, b{1, 2};
  EXPECT_THROW((void)fm::compute_rank_metrics(a, b, 1), std::invalid_argument);
  EXPECT_THROW((void)fm::compute_rank_metrics(a, a, 0), std::invalid_argument);
  EXPECT_THROW((void)fm::compute_rank_metrics(a, a, 4), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RankMetricsContext: amortized evaluation
// ---------------------------------------------------------------------------

TEST(RankMetricsContext, MatchesOneShotAcrossManyRealizations) {
  auto engine = flowrank::util::make_engine(53);
  std::uniform_int_distribution<std::uint64_t> size_dist(0, 40);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 6 + trial % 50;
    const std::size_t t = 1 + trial % std::min<std::size_t>(n, 9);
    std::vector<std::uint64_t> true_sizes(n);
    // Coarse sizes: plenty of true-size ties, incl. zero-heavy samples.
    for (std::size_t i = 0; i < n; ++i) true_sizes[i] = (size_dist(engine) / 8) * 8 + 1;
    fm::RankMetricsContext context(true_sizes, t);
    EXPECT_EQ(context.n(), n);
    EXPECT_EQ(context.t(), t);
    for (int realization = 0; realization < 10; ++realization) {
      std::vector<std::uint64_t> sampled(n);
      for (std::size_t i = 0; i < n; ++i) sampled[i] = size_dist(engine) / 12;
      for (auto policy : {fm::TiePolicy::kPaper, fm::TiePolicy::kLenient}) {
        const auto via_context = context.evaluate(sampled, policy);
        const auto one_shot = fm::compute_rank_metrics(true_sizes, sampled, t, policy);
        EXPECT_DOUBLE_EQ(via_context.ranking_swapped, one_shot.ranking_swapped)
            << "trial " << trial << " realization " << realization;
        EXPECT_DOUBLE_EQ(via_context.detection_swapped, one_shot.detection_swapped);
        EXPECT_DOUBLE_EQ(via_context.ranking_pairs, one_shot.ranking_pairs);
        EXPECT_DOUBLE_EQ(via_context.detection_pairs, one_shot.detection_pairs);
        EXPECT_DOUBLE_EQ(via_context.top_set_recall, one_shot.top_set_recall);
      }
    }
  }
}

TEST(RankMetricsContext, InvalidArguments) {
  std::vector<std::uint64_t> sizes{3, 2, 1};
  EXPECT_THROW(fm::RankMetricsContext(sizes, 0), std::invalid_argument);
  EXPECT_THROW(fm::RankMetricsContext(sizes, 4), std::invalid_argument);
  EXPECT_THROW(fm::RankMetricsContext({}, 1), std::invalid_argument);
  fm::RankMetricsContext context(sizes, 2);
  std::vector<std::uint64_t> wrong_length{1, 2};
  EXPECT_THROW((void)context.evaluate(wrong_length), std::invalid_argument);
}

// Regression (lenient zeros_after rescan): the lenient policy counted the
// zero-sampled suffix of every top-t row with a fresh O(N) scan — O(t·N)
// total, quadratic when t grows with N (t = N/5 here is ~2e9 elementary
// steps the old way; the suffix counter folded into the existing Fenwick
// pass makes it O(N log N)). With every sample zero, the lenient policy
// swaps every pair, so both metrics are exactly their pair-count
// denominators — an analytic golden value that the old and new paths must
// (and do) agree on; the runtime difference is what this guards.
TEST(RankMetricsContext, LenientAllZeroSamplesAtLargeTopTIsExactAndFast) {
  const std::size_t n = 100000;
  const std::size_t t = n / 5;
  std::vector<std::uint64_t> true_sizes(n);
  for (std::size_t i = 0; i < n; ++i) {
    true_sizes[i] = 1 + (static_cast<std::uint64_t>(i) * 2654435761u) % 1000;
  }
  const std::vector<std::uint64_t> sampled(n, 0);
  fm::RankMetricsContext context(true_sizes, t);
  const auto result = context.evaluate(sampled, fm::TiePolicy::kLenient);
  EXPECT_DOUBLE_EQ(result.ranking_swapped, result.ranking_pairs);
  EXPECT_DOUBLE_EQ(result.detection_swapped, result.detection_pairs);
  EXPECT_DOUBLE_EQ(result.ranking_pairs,
                   0.5 * (2.0 * static_cast<double>(n) - static_cast<double>(t) - 1.0) *
                       static_cast<double>(t));
}

// The evaluator picks a value-indexed Fenwick tree for small sampled
// sizes and a sort-compressed one for large sparse sizes; both must agree
// with brute force (the random-instance test above covers only the small
// direct mode, so force the sparse mode here with huge spread-out sizes).
TEST(RankMetricsContext, SparseLargeSampledSizesMatchBruteForce) {
  auto engine = flowrank::util::make_engine(71);
  std::uniform_int_distribution<std::uint64_t> size_dist(0, 50);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 8 + trial % 40;
    const std::size_t t = 1 + trial % 7;
    std::vector<std::uint64_t> true_sizes(n), sampled(n);
    for (std::size_t i = 0; i < n; ++i) {
      true_sizes[i] = size_dist(engine) + 1;
      // Sparse range far beyond the direct-indexing cap, zeros included.
      const auto draw = size_dist(engine);
      sampled[i] = draw < 10 ? 0 : draw * 700'000'001ull;
    }
    for (auto policy : {fm::TiePolicy::kPaper, fm::TiePolicy::kLenient}) {
      const auto fast = fm::compute_rank_metrics(true_sizes, sampled, t, policy);
      const auto slow = brute_force(true_sizes, sampled, t, policy);
      EXPECT_DOUBLE_EQ(fast.ranking_swapped, slow.ranking_swapped)
          << "trial " << trial;
      EXPECT_DOUBLE_EQ(fast.detection_swapped, slow.detection_swapped);
    }
  }
}

// The threshold-counting evaluator against the definitions, at sizes up
// to N = 5000 and t from 1 to N, on the populations that stress it:
// thinned heavy-tailed sizes, all-zero samples, sparse huge samples with
// ties among them, a t-th true size shared by most of the population (an
// ordered prefix far longer than t), and a population of one size.
TEST(RankMetricsContext, MatchesBruteForceUpToN5000AcrossTopT) {
  auto engine = flowrank::util::make_engine(0x5EED);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::uint64_t huge[] = {0, std::numeric_limits<std::uint64_t>::max(),
                                (1ULL << 62) + 3, (1ULL << 40) + 1, 1ULL << 40};
  for (const std::size_t n : {1u, 2u, 37u, 500u, 5000u}) {
    std::vector<std::size_t> tops;
    for (const std::size_t t : {std::size_t{1}, std::size_t{10}, n / 2, n}) {
      if (t >= 1 && t <= n && std::find(tops.begin(), tops.end(), t) == tops.end()) {
        tops.push_back(t);
      }
    }
    for (const std::size_t t : tops) {
      std::vector<std::pair<std::string, std::vector<std::uint64_t>>> populations;
      std::vector<std::uint64_t> pareto(n), tie_at_t(n), flat(n, 9);
      for (std::size_t i = 0; i < n; ++i) {
        pareto[i] = 1 + static_cast<std::uint64_t>(std::pow(1.0 - unit(engine), -1.0 / 1.2));
        tie_at_t[i] = i < t / 2 ? 1000 + (i % 3) : 7;
      }
      populations.emplace_back("pareto", pareto);
      populations.emplace_back("tie_at_t", tie_at_t);
      populations.emplace_back("flat", flat);
      for (const auto& [family, true_sizes] : populations) {
        std::vector<std::pair<std::string, std::vector<std::uint64_t>>> realizations;
        for (const double p : {0.1, 0.5}) {
          std::vector<std::uint64_t> thinned(n);
          for (std::size_t i = 0; i < n; ++i) {
            thinned[i] = flowrank::util::binomial_sample(true_sizes[i], p, engine);
          }
          realizations.emplace_back("thinned " + std::to_string(p), thinned);
        }
        realizations.emplace_back("all_zero", std::vector<std::uint64_t>(n, 0));
        std::vector<std::uint64_t> sparse(n);
        for (auto& s : sparse) s = huge[engine() % 5];
        realizations.emplace_back("sparse_huge", sparse);

        fm::RankMetricsContext context(true_sizes, t);
        for (const auto& [name, sampled] : realizations) {
          const std::string label = family + " " + name + " n=" + std::to_string(n) +
                                    " t=" + std::to_string(t);
          for (auto policy : {fm::TiePolicy::kPaper, fm::TiePolicy::kLenient}) {
            const auto fast = context.evaluate(sampled, policy);
            const auto slow = brute_force(true_sizes, sampled, t, policy);
            ASSERT_EQ(fast.ranking_swapped, slow.ranking_swapped)
                << label << " policy " << static_cast<int>(policy);
            ASSERT_EQ(fast.detection_swapped, slow.detection_swapped)
                << label << " policy " << static_cast<int>(policy);
            ASSERT_EQ(fast.top_set_recall, brute_force_recall(true_sizes, sampled, t))
                << label;
            const double nd = static_cast<double>(n);
            const double td = static_cast<double>(t);
            ASSERT_EQ(fast.ranking_pairs, 0.5 * (2.0 * nd - td - 1.0) * td) << label;
            ASSERT_EQ(fast.detection_pairs, td * (nd - td)) << label;
          }
        }
      }
    }
  }
}
