// Tests for the inversion estimators, heavy-hitter trackers and TCP-seq
// size estimation.
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "flowrank/dist/pareto.hpp"
#include "flowrank/estimators/heavy_hitter_trackers.hpp"
#include "flowrank/estimators/inversion.hpp"
#include "flowrank/estimators/tcp_seq.hpp"
#include "flowrank/numeric/stats.hpp"
#include "flowrank/util/rng.hpp"

namespace fe = flowrank::estimators;
namespace fd = flowrank::dist;
namespace fp = flowrank::packet;

// ---------------------------------------------------------------------------
// Inversion
// ---------------------------------------------------------------------------

TEST(Inversion, ScaledEstimateIsUnbiased) {
  auto engine = flowrank::util::make_engine(41);
  const std::uint64_t true_size = 5000;
  const double p = 0.01;
  std::binomial_distribution<std::uint64_t> thin(true_size, p);
  double acc = 0.0;
  int covered = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    const auto est = fe::scaled_size_estimate(thin(engine), p);
    acc += est.estimate;
    if (est.ci95_low <= true_size && true_size <= est.ci95_high) ++covered;
  }
  EXPECT_NEAR(acc / trials, static_cast<double>(true_size), 50.0);
  // 95% CI coverage within a few percent.
  EXPECT_NEAR(static_cast<double>(covered) / trials, 0.95, 0.03);
}

TEST(Inversion, MissedFlowProbabilityMatchesSimulation) {
  const auto pareto = fd::Pareto::from_mean(9.6, 1.5);
  const double p = 0.01;
  const double analytic = fe::missed_flow_probability(pareto, p);
  auto engine = flowrank::util::make_engine(17);
  int missed = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    const auto size = static_cast<std::uint64_t>(
        std::max(1.0, std::round(pareto.sample(engine))));
    std::binomial_distribution<std::uint64_t> thin(size, p);
    if (thin(engine) == 0) ++missed;
  }
  const double empirical = static_cast<double>(missed) / trials;
  EXPECT_NEAR(analytic, empirical, 0.01);
}

TEST(Inversion, MissedFlowProbabilityLimits) {
  const auto pareto = fd::Pareto::from_mean(9.6, 1.5);
  EXPECT_DOUBLE_EQ(fe::missed_flow_probability(pareto, 1.0), 0.0);
  EXPECT_GT(fe::missed_flow_probability(pareto, 0.001),
            fe::missed_flow_probability(pareto, 0.1));
}

TEST(Inversion, PopulationEstimateRecoversN) {
  const auto pareto = fd::Pareto::from_mean(9.6, 1.5);
  const double p = 0.02;
  auto engine = flowrank::util::make_engine(23);
  const int n = 100000;
  std::uint64_t seen = 0, sampled_packets = 0;
  for (int i = 0; i < n; ++i) {
    const auto size = static_cast<std::uint64_t>(
        std::max(1.0, std::round(pareto.sample(engine))));
    std::binomial_distribution<std::uint64_t> thin(size, p);
    const auto s = thin(engine);
    if (s > 0) {
      ++seen;
      sampled_packets += s;
    }
  }
  const auto estimate = fe::estimate_population(seen, sampled_packets, p, pareto);
  EXPECT_NEAR(estimate.total_flows, n, 0.05 * n);
  EXPECT_NEAR(estimate.mean_flow_packets, 9.6, 2.5);
}

TEST(Inversion, InvalidArguments) {
  const auto pareto = fd::Pareto::from_mean(9.6, 1.5);
  EXPECT_THROW((void)fe::scaled_size_estimate(5, 0.0), std::invalid_argument);
  EXPECT_THROW((void)fe::missed_flow_probability(pareto, 1.5),
               std::invalid_argument);
  EXPECT_THROW((void)fe::estimate_population(10, 100, -0.1, pareto),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Heavy-hitter trackers
// ---------------------------------------------------------------------------

namespace {
fp::FlowKey key_of(std::uint64_t id) { return fp::FlowKey{0, id}; }
}  // namespace

TEST(SampleAndHold, CountsHeldFlowsExactlyAfterEntry) {
  fe::SampleAndHold tracker(1.0, 0, 1);  // h=1: every flow held immediately
  for (int i = 0; i < 7; ++i) tracker.offer(key_of(1));
  const auto flows = tracker.flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_DOUBLE_EQ(flows[0].estimated_packets, 7.0);  // correction = 0 at h=1
}

TEST(SampleAndHold, EstimateRoughlyUnbiasedForLargeFlows) {
  const double h = 0.05;
  flowrank::numeric::RunningStats estimates;
  for (int trial = 0; trial < 300; ++trial) {
    fe::SampleAndHold tracker(h, 0, 100 + trial);
    for (int i = 0; i < 500; ++i) tracker.offer(key_of(9));
    for (const auto& f : tracker.flows()) estimates.add(f.estimated_packets);
  }
  // Conditional on being held, estimate corrects the geometric miss.
  EXPECT_NEAR(estimates.mean(), 500.0, 25.0);
}

TEST(SampleAndHold, RespectsCapacity) {
  fe::SampleAndHold tracker(1.0, 2, 3);
  tracker.offer(key_of(1));
  tracker.offer(key_of(2));
  tracker.offer(key_of(3));  // table full
  EXPECT_EQ(tracker.size(), 2u);
  EXPECT_EQ(tracker.overflow_drops(), 1u);
}

TEST(SampleAndHold, InvalidArguments) {
  EXPECT_THROW(fe::SampleAndHold(0.0, 0, 1), std::invalid_argument);
  EXPECT_THROW(fe::SampleAndHold(1.5, 0, 1), std::invalid_argument);
}

TEST(SpaceSaving, ExactWhenCapacitySuffices) {
  fe::SpaceSavingTracker tracker(10);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    for (std::uint64_t i = 0; i < id * 10; ++i) tracker.offer(key_of(id));
  }
  const auto top = tracker.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key.lo, 5u);
  EXPECT_DOUBLE_EQ(top[0].estimated_packets, 50.0);
  EXPECT_DOUBLE_EQ(top[0].error_bound, 0.0);
}

TEST(SpaceSaving, ErrorBoundHolds) {
  // Adversarial-ish stream with eviction churn: estimates overcount by at
  // most error_bound, and true heavy hitters survive.
  fe::SpaceSavingTracker tracker(8);
  std::map<std::uint64_t, std::uint64_t> truth;
  auto engine = flowrank::util::make_engine(55);
  std::uniform_int_distribution<std::uint64_t> small(10, 200);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t id = i % 3 == 0 ? 1 + (i % 2) : small(engine);
    tracker.offer(key_of(id));
    ++truth[id];
  }
  for (const auto& f : tracker.flows()) {
    const auto true_count = truth[f.key.lo];
    EXPECT_GE(f.estimated_packets + 1e-9, static_cast<double>(true_count));
    EXPECT_LE(f.estimated_packets - f.error_bound,
              static_cast<double>(true_count) + 1e-9);
  }
  // The two genuine heavy hitters are tracked.
  const auto top = tracker.top(2);
  EXPECT_TRUE((top[0].key.lo == 1 && top[1].key.lo == 2) ||
              (top[0].key.lo == 2 && top[1].key.lo == 1));
}

TEST(SpaceSaving, InvalidCapacity) {
  EXPECT_THROW(fe::SpaceSavingTracker(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TCP sequence estimation
// ---------------------------------------------------------------------------

TEST(TcpSeq, SeqPathBeatsScalingForSampledTcpFlows) {
  // A 10000-packet TCP flow sampled at 1%: the seq span pins the size.
  auto engine = flowrank::util::make_engine(61);
  const std::uint64_t size = 10000;
  const double p = 0.01;
  const std::uint32_t pkt_bytes = 500;
  flowrank::numeric::RunningStats seq_err, scale_err;
  for (int trial = 0; trial < 400; ++trial) {
    flowrank::flowtable::FlowCounter counter;
    counter.has_tcp_seq = false;
    std::bernoulli_distribution coin(p);
    for (std::uint64_t i = 0; i < size; ++i) {
      if (!coin(engine)) continue;
      ++counter.packets;
      const std::uint32_t seq = static_cast<std::uint32_t>(i) * pkt_bytes;
      counter.min_tcp_seq = std::min(counter.min_tcp_seq, seq);
      counter.max_tcp_seq = std::max(counter.max_tcp_seq, seq);
      counter.has_tcp_seq = true;
    }
    if (counter.packets < 2) continue;
    const auto seq_est = fe::estimate_size_tcp_seq(counter, p, pkt_bytes);
    ASSERT_TRUE(seq_est.used_seq);
    seq_err.add(std::abs(seq_est.packets - static_cast<double>(size)));
    scale_err.add(std::abs(static_cast<double>(counter.packets) / p -
                           static_cast<double>(size)));
  }
  // Sequence-based estimates are far tighter than s/p scaling.
  EXPECT_LT(seq_err.mean() * 2.0, scale_err.mean());
  EXPECT_LT(seq_err.mean(), 350.0);  // head+tail geometric slack ~2(1-p)/p
}

TEST(TcpSeq, FallsBackWithoutSeqInfo) {
  flowrank::flowtable::FlowCounter counter;
  counter.packets = 7;
  counter.has_tcp_seq = false;
  const auto est = fe::estimate_size_tcp_seq(counter, 0.1, 500);
  EXPECT_FALSE(est.used_seq);
  EXPECT_DOUBLE_EQ(est.packets, 70.0);
}

TEST(TcpSeq, FallsBackOnSinglePacket) {
  flowrank::flowtable::FlowCounter counter;
  counter.packets = 1;
  counter.has_tcp_seq = true;
  counter.min_tcp_seq = counter.max_tcp_seq = 1500;
  const auto est = fe::estimate_size_tcp_seq(counter, 0.5, 500);
  EXPECT_FALSE(est.used_seq);
}

TEST(TcpSeq, InvalidArguments) {
  flowrank::flowtable::FlowCounter counter;
  EXPECT_THROW((void)fe::estimate_size_tcp_seq(counter, 0.0, 500),
               std::invalid_argument);
  EXPECT_THROW((void)fe::estimate_size_tcp_seq(counter, 0.5, 0),
               std::invalid_argument);
}
