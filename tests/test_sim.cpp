// Tests for the trace-driven simulation engine: structural properties,
// count-path vs packet-path equivalence, and the paper's qualitative
// simulation findings at reduced scale.
#include <cmath>

#include <gtest/gtest.h>

#include "flowrank/sim/binned_sim.hpp"

namespace fp = flowrank::packet;
namespace ft = flowrank::trace;
namespace fsim = flowrank::sim;

namespace {

ft::FlowTrace make_test_trace(double duration_s = 60.0, double rate = 300.0,
                              std::uint64_t seed = 21) {
  auto cfg = ft::FlowTraceConfig::sprint_5tuple(1.5, seed);
  cfg.duration_s = duration_s;
  cfg.flow_rate_per_s = rate;
  return ft::generate_flow_trace(cfg);
}

fsim::SimConfig make_sim_config() {
  fsim::SimConfig cfg;
  cfg.bin_seconds = 10.0;
  cfg.top_t = 5;
  cfg.sampling_rates = {0.01, 0.1, 0.5};
  cfg.runs = 10;
  cfg.seed = 3;
  return cfg;
}

}  // namespace

TEST(BinnedSim, ProducesSeriesPerRateAndBin) {
  const auto trace = make_test_trace();
  const auto cfg = make_sim_config();
  const auto result = fsim::run_binned_simulation(trace, cfg);
  ASSERT_EQ(result.series.size(), cfg.sampling_rates.size());
  for (std::size_t r = 0; r < result.series.size(); ++r) {
    EXPECT_DOUBLE_EQ(result.series[r].sampling_rate, cfg.sampling_rates[r]);
    ASSERT_EQ(result.series[r].bins.size(), 6u);  // 60 s / 10 s
    for (const auto& bin : result.series[r].bins) {
      EXPECT_EQ(bin.ranking.count(), static_cast<std::size_t>(cfg.runs));
      EXPECT_GT(bin.flows_in_bin, cfg.top_t);
    }
  }
}

TEST(BinnedSim, HigherSamplingRateRanksBetter) {
  const auto trace = make_test_trace();
  const auto result = fsim::run_binned_simulation(trace, make_sim_config());
  // Average the per-bin means; series are ordered 1%, 10%, 50%.
  std::vector<double> avg(result.series.size(), 0.0);
  for (std::size_t r = 0; r < result.series.size(); ++r) {
    for (const auto& bin : result.series[r].bins) avg[r] += bin.ranking.mean();
    avg[r] /= static_cast<double>(result.series[r].bins.size());
  }
  EXPECT_GT(avg[0], avg[1]);
  EXPECT_GT(avg[1], avg[2]);
}

TEST(BinnedSim, DetectionNoHarderThanRanking) {
  const auto trace = make_test_trace();
  const auto result = fsim::run_binned_simulation(trace, make_sim_config());
  for (const auto& series : result.series) {
    for (const auto& bin : series.bins) {
      EXPECT_LE(bin.detection.mean(), bin.ranking.mean() + 1e-12);
    }
  }
}

TEST(BinnedSim, RecallImprovesWithRate) {
  const auto trace = make_test_trace();
  const auto result = fsim::run_binned_simulation(trace, make_sim_config());
  double low = 0.0, high = 0.0;
  for (const auto& bin : result.series.front().bins) low += bin.recall.mean();
  for (const auto& bin : result.series.back().bins) high += bin.recall.mean();
  EXPECT_GT(high, low);
}

TEST(BinnedSim, DeterministicInSeed) {
  const auto trace = make_test_trace();
  const auto cfg = make_sim_config();
  const auto a = fsim::run_binned_simulation(trace, cfg);
  const auto b = fsim::run_binned_simulation(trace, cfg);
  for (std::size_t r = 0; r < a.series.size(); ++r) {
    for (std::size_t bin = 0; bin < a.series[r].bins.size(); ++bin) {
      EXPECT_DOUBLE_EQ(a.series[r].bins[bin].ranking.mean(),
                       b.series[r].bins[bin].ranking.mean());
    }
  }
}

TEST(BinnedSim, CountPathConsistentWithPacketPath) {
  // The two execution paths induce the same distribution; compare the
  // per-bin metric means of the count path against packet-path runs.
  const auto trace = make_test_trace(/*duration_s=*/40.0, /*rate=*/150.0);
  fsim::SimConfig cfg;
  cfg.bin_seconds = 10.0;
  cfg.top_t = 5;
  cfg.sampling_rates = {0.2};
  cfg.runs = 40;
  cfg.seed = 9;
  const auto counts = fsim::run_binned_simulation(trace, cfg);

  const int packet_runs = 40;
  std::vector<flowrank::numeric::RunningStats> packet_bins(4);
  for (int run = 0; run < packet_runs; ++run) {
    const auto metrics = fsim::run_packet_level_once(trace, 0.2, cfg, 1000 + run);
    for (std::size_t b = 0; b < packet_bins.size() && b < metrics.size(); ++b) {
      packet_bins[b].add(metrics[b].ranking_swapped);
    }
  }
  for (std::size_t b = 0; b < packet_bins.size(); ++b) {
    const auto& fast = counts.series[0].bins[b].ranking;
    const double band = 4.0 * (fast.stddev() + packet_bins[b].stddev()) /
                            std::sqrt(static_cast<double>(packet_runs)) +
                        0.35 * std::max(1.0, fast.mean());
    EXPECT_NEAR(fast.mean(), packet_bins[b].mean(), band) << "bin " << b;
  }
}

// The packet-versus-count edge. The packet model (PacketStream placement,
// per-packet Bernoulli sampling) and the count path (multinomial bin
// split, binomial thinning) induce the same law on each bin's metrics and
// flow population. Every run re-draws both the placement, which the trace
// seed keys, and the sampling, so the runs are i.i.d. on both sides and
// the confidence interval of the gap between the two means follows from
// the run count. The flows-per-bin mean depends on placement alone (a
// multi-bin flow of few packets lands in one bin or several), which gives
// the edge its power over the split and the placement; the ranking and
// detection means are the metrics the paper reports.
TEST(BinnedSim, PacketModelAgreesWithCountPathAcrossBetaAndRate) {
  constexpr int kRuns = 48;
  constexpr double kZ = 4.0;
  using flowrank::numeric::RunningStats;
  for (const double beta : {1.5, 2.5}) {
    auto trace_cfg = ft::FlowTraceConfig::sprint_5tuple(beta, 31);
    trace_cfg.duration_s = 15.0;
    trace_cfg.flow_rate_per_s = 200.0;
    const auto base = ft::generate_flow_trace(trace_cfg);
    std::size_t multi_bin_flows = 0;
    for (const auto& flow : base.flows) {
      multi_bin_flows += flow.packets > 1 && std::floor(flow.start_s / 5.0) !=
                                                 std::floor(flow.end_s() / 5.0);
    }
    ASSERT_GT(multi_bin_flows, 50u) << "beta " << beta << ": placement would go untested";
    for (const double rate : {0.01, 0.1}) {
      RunningStats count_ranking, count_detection, count_flows;
      RunningStats packet_ranking, packet_detection, packet_flows;
      for (int run = 0; run < kRuns; ++run) {
        auto trace = base;
        trace.config.seed = 1000 + static_cast<std::uint64_t>(run);
        fsim::SimConfig cfg;
        cfg.bin_seconds = 5.0;
        cfg.top_t = 10;
        cfg.sampling_rates = {rate};
        cfg.runs = 1;
        cfg.seed = 1 + static_cast<std::uint64_t>(run);
        const auto counts = fsim::run_binned_simulation(trace, cfg);
        const auto packets = fsim::run_packet_level_estimated(
            trace, rate, cfg, 7000 + static_cast<std::uint64_t>(run), 1, fsim::EstimatorStage{});
        const auto& bins = counts.series[0].bins;
        ASSERT_EQ(bins.size(), 3u);
        ASSERT_EQ(packets.size(), bins.size());
        double cr = 0.0, cd = 0.0, cf = 0.0, pr = 0.0, pd = 0.0, pf = 0.0;
        for (std::size_t b = 0; b < bins.size(); ++b) {
          ASSERT_EQ(bins[b].ranking.count(), 1u) << "bin " << b << " not ranked";
          cr += bins[b].ranking.mean();
          cd += bins[b].detection.mean();
          cf += static_cast<double>(bins[b].flows_in_bin);
          pr += packets[b].metrics.ranking_swapped;
          pd += packets[b].metrics.detection_swapped;
          pf += static_cast<double>(packets[b].flows_in_bin);
        }
        const auto n = static_cast<double>(bins.size());
        count_ranking.add(cr / n);
        count_detection.add(cd / n);
        count_flows.add(cf / n);
        packet_ranking.add(pr / n);
        packet_detection.add(pd / n);
        packet_flows.add(pf / n);
      }
      const auto agree = [&](const RunningStats& count, const RunningStats& packet,
                             const char* metric) {
        const double half_width =
            kZ * std::sqrt((count.variance() + packet.variance()) / kRuns);
        EXPECT_GT(count.mean(), 0.0) << metric;
        EXPECT_LE(std::abs(count.mean() - packet.mean()), half_width)
            << metric << " beta " << beta << " rate " << rate << ": count "
            << count.mean() << " packet " << packet.mean();
      };
      agree(count_ranking, packet_ranking, "ranking");
      agree(count_detection, packet_detection, "detection");
      agree(count_flows, packet_flows, "flows per bin");
    }
  }
}

namespace {

/// Hand-built trace of single-packet flows at exact timestamps (a
/// single-packet flow's packet lands at to_ns(start_s) deterministically,
/// with no RNG involved).
ft::FlowTrace make_point_trace(double duration_s,
                               const std::vector<double>& starts) {
  ft::FlowTrace trace;
  trace.config = ft::FlowTraceConfig::sprint_5tuple(1.5, 1);
  trace.config.duration_s = duration_s;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    fp::FlowRecord flow;
    flow.tuple.src_ip = static_cast<std::uint32_t>(i + 1);
    flow.tuple.dst_ip = 0x0A000001;
    flow.tuple.protocol = fp::Protocol::kUdp;
    flow.start_s = starts[i];
    flow.duration_s = 0.0;
    flow.packets = 1;
    flow.bytes = 500;
    trace.flows.push_back(flow);
  }
  return trace;
}

}  // namespace

// Regression (bin-edge truncation): the packet path used
// static_cast<int64>(bin_seconds * 1e9), which truncates whenever the
// double product lands just under an integer (1.001 s -> 1 000 999 999 ns
// instead of 1 001 000 000), so its integer bin edges drifted one ns per
// bin away from the double-division edges of bin_flow_counts. bin_ns must
// round — trace::bin_length_ns — so a packet at 3.002999998 s stays in
// bin 2 of 1.001-s bins instead of leaking into bin 3.
TEST(BinnedSim, PacketPathBinEdgesDoNotTruncate) {
  // Flows at 2.5 s and 3.002999998 s (bin 2), 3.5 s (bin 3).
  const auto trace = make_point_trace(4.5, {2.5, 3.002999998, 3.5});
  fsim::SimConfig cfg;
  cfg.bin_seconds = 1.001;
  cfg.top_t = 1;
  cfg.sampling_rates = {1.0};
  cfg.seed = 2;
  const auto out = fsim::run_packet_level_once(trace, 1.0, cfg, 5);
  ASSERT_EQ(out.size(), 5u);  // ceil(4.5 / 1.001)
  // t = 1, so ranking_pairs = N - 1 reveals each bin's flow population.
  EXPECT_DOUBLE_EQ(out[2].ranking_pairs, 1.0);  // two flows in bin 2
  EXPECT_DOUBLE_EQ(out[3].ranking_pairs, 0.0);  // one flow in bin 3
}

// The ISSUE's canonical sub-second interval: with bin_seconds = 0.3 the
// packet path's edges must agree with the double-division edges exactly
// (a packet 2 ns below the 0.9 s edge belongs to bin 2, not bin 3).
TEST(BinnedSim, PacketPathBinEdgesMatchDoubleDivisionEdgesAt300ms) {
  EXPECT_EQ(ft::bin_length_ns(0.3), 300'000'000);
  const auto trace = make_point_trace(1.21, {0.85, 0.899999998, 0.95});
  fsim::SimConfig cfg;
  cfg.bin_seconds = 0.3;
  cfg.top_t = 1;
  cfg.sampling_rates = {1.0};
  cfg.seed = 2;
  const auto out = fsim::run_packet_level_once(trace, 1.0, cfg, 5);
  ASSERT_EQ(out.size(), 5u);  // ceil(1.21 / 0.3)
  EXPECT_DOUBLE_EQ(out[2].ranking_pairs, 1.0);  // two flows in bin 2
  EXPECT_DOUBLE_EQ(out[3].ranking_pairs, 0.0);  // one flow in bin 3
}

// Regression (final-bin flush drop): a packet landing exactly at
// duration_s classifies one past the last bin; it must be clamped into
// the final bin (like bin_counts' last_bin clamp), not silently dropped
// with the whole final table flush.
TEST(BinnedSim, PacketAtTraceEndCountsInFinalBin) {
  // One flow mid-bin-5 plus two flows exactly at the trace end (3.0 s).
  const auto trace = make_point_trace(3.0, {2.7, 3.0, 3.0});
  fsim::SimConfig cfg;
  cfg.bin_seconds = 0.5;
  cfg.top_t = 1;
  cfg.sampling_rates = {1.0};
  cfg.seed = 2;
  const auto out = fsim::run_packet_level_once(trace, 1.0, cfg, 5);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_DOUBLE_EQ(out[5].ranking_pairs, 2.0);  // all three flows present
}

TEST(BinnedSim, SkipsBinsWithTooFewFlows) {
  // A near-empty trace: bins with fewer flows than top_t keep empty stats.
  auto cfg = ft::FlowTraceConfig::sprint_5tuple(1.5, 5);
  cfg.duration_s = 30.0;
  cfg.flow_rate_per_s = 0.1;  // ~3 flows over the whole trace
  const auto trace = ft::generate_flow_trace(cfg);
  fsim::SimConfig sim_cfg = make_sim_config();
  sim_cfg.top_t = 10;
  const auto result = fsim::run_binned_simulation(trace, sim_cfg);
  for (const auto& series : result.series) {
    for (const auto& bin : series.bins) {
      if (bin.flows_in_bin < sim_cfg.top_t) {
        EXPECT_EQ(bin.ranking.count(), 0u);
      }
    }
  }
}

TEST(BinnedSim, InvalidConfigurations) {
  const auto trace = make_test_trace(10.0, 50.0);
  auto cfg = make_sim_config();
  cfg.bin_seconds = 0.0;
  EXPECT_THROW((void)fsim::run_binned_simulation(trace, cfg), std::invalid_argument);
  cfg = make_sim_config();
  cfg.runs = 0;
  EXPECT_THROW((void)fsim::run_binned_simulation(trace, cfg), std::invalid_argument);
  cfg = make_sim_config();
  cfg.sampling_rates = {1.5};
  EXPECT_THROW((void)fsim::run_binned_simulation(trace, cfg), std::invalid_argument);
  cfg = make_sim_config();
  EXPECT_THROW((void)fsim::run_packet_level_once(trace, 0.0, cfg, 1),
               std::invalid_argument);
}
