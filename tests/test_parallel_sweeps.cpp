// Tests for the parallel Monte-Carlo sweeps: run_binned_simulation and
// run_mc_model must produce exactly the sequential results at any thread
// count (every grid cell / run owns an independent RNG stream and result
// slot on the shared exec::TaskPool; folding is in deterministic order).
// Pool mechanics are tested in tests/test_task_pool.cpp. These suites
// also run under ThreadSanitizer in CI next to the Sharded* ingest tests.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/core/mc_model.hpp"
#include "flowrank/dist/pareto.hpp"
#include "flowrank/sim/binned_sim.hpp"

namespace fc = flowrank::core;
namespace fp = flowrank::packet;
namespace fsim = flowrank::sim;
namespace ft = flowrank::trace;

// ---------------------------------------------------------------------------
// Bit-identity of the parallel sweeps
// ---------------------------------------------------------------------------

namespace {

/// Hand-built trace: one wave of zero-duration flows per bin with chosen
/// packet counts (a zero-duration flow's packets all land in its start
/// bin, so per-bin true sizes are exactly `sizes` with no RNG involved).
/// Includes deliberate true-size ties and one under-populated final wave.
ft::FlowTrace make_tied_trace() {
  ft::FlowTrace trace;
  trace.config = ft::FlowTraceConfig::sprint_5tuple(1.5, 1);
  trace.config.duration_s = 40.0;
  std::uint32_t next_ip = 1;
  const auto add_wave = [&](double start_s, const std::vector<std::uint64_t>& sizes) {
    for (std::uint64_t packets : sizes) {
      fp::FlowRecord flow;
      flow.tuple.src_ip = next_ip++;
      flow.tuple.dst_ip = 0x0A000001;
      flow.tuple.protocol = fp::Protocol::kUdp;
      flow.start_s = start_s;
      flow.duration_s = 0.0;
      flow.packets = packets;
      flow.bytes = packets * 500;
      trace.flows.push_back(flow);
    }
  };
  // Bins of 10 s. Waves with heavy ties (equal true sizes straddling the
  // top-t boundary) and small sizes (so tiny rates sample all-zero bins).
  add_wave(1.0, {9, 9, 9, 9, 5, 5, 5, 3, 1, 1});
  add_wave(11.0, {7, 7, 7, 7, 7, 7, 2, 2, 2, 2});
  add_wave(21.0, {40, 12, 12, 12, 4, 4, 4, 4, 1, 1});
  add_wave(31.0, {6, 6});  // fewer flows than top_t: bin must be skipped
  return trace;
}

fsim::SimConfig make_sweep_config(flowrank::metrics::TiePolicy policy) {
  fsim::SimConfig cfg;
  cfg.bin_seconds = 10.0;
  cfg.top_t = 4;
  // 1e-9 makes every sampled size 0 with near-certainty (all-zero bins);
  // the mid rates exercise partial thinning around the ties.
  cfg.sampling_rates = {1e-9, 0.2, 0.6};
  cfg.runs = 25;
  cfg.seed = 11;
  cfg.tie_policy = policy;
  return cfg;
}

void expect_bin_stats_identical(const fsim::SimResult& a, const fsim::SimResult& b,
                                std::size_t threads) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t r = 0; r < a.series.size(); ++r) {
    ASSERT_EQ(a.series[r].bins.size(), b.series[r].bins.size());
    for (std::size_t bin = 0; bin < a.series[r].bins.size(); ++bin) {
      const auto& sa = a.series[r].bins[bin];
      const auto& sb = b.series[r].bins[bin];
      EXPECT_EQ(sa.flows_in_bin, sb.flows_in_bin);
      EXPECT_EQ(sa.ranking.count(), sb.ranking.count());
      // Bit-identical, not merely close: EXPECT_EQ on the doubles.
      EXPECT_EQ(sa.ranking.mean(), sb.ranking.mean())
          << "rate " << r << " bin " << bin << " threads " << threads;
      EXPECT_EQ(sa.ranking.stddev(), sb.ranking.stddev());
      EXPECT_EQ(sa.detection.mean(), sb.detection.mean());
      EXPECT_EQ(sa.detection.stddev(), sb.detection.stddev());
      EXPECT_EQ(sa.recall.mean(), sb.recall.mean());
      EXPECT_EQ(sa.recall.stddev(), sb.recall.stddev());
    }
  }
}

}  // namespace

TEST(BinnedSimSweep, ThreadCountsAreBitIdenticalBothTiePolicies) {
  const auto trace = make_tied_trace();
  for (auto policy : {flowrank::metrics::TiePolicy::kPaper,
                      flowrank::metrics::TiePolicy::kLenient}) {
    auto cfg = make_sweep_config(policy);
    cfg.num_threads = 1;
    const auto sequential = fsim::run_binned_simulation(trace, cfg);

    // The tiny rate really does produce all-zero sampled bins, and the
    // tied waves really are rankable (sanity of the fixture, not of the
    // threading).
    EXPECT_EQ(sequential.series[0].bins[0].ranking.count(), 25u);
    EXPECT_EQ(sequential.series[0].bins[3].ranking.count(), 0u);  // skipped

    for (std::size_t threads : {2u, 4u, 7u}) {
      cfg.num_threads = threads;
      const auto parallel = fsim::run_binned_simulation(trace, cfg);
      expect_bin_stats_identical(sequential, parallel, threads);
    }
  }
}

TEST(BinnedSimSweep, GeneratedTraceBitIdenticalAcrossThreads) {
  // A generated trace with realistic populations, as the figure drivers
  // run it (multi-bin, multi-rate, paper tie policy).
  auto trace_cfg = ft::FlowTraceConfig::sprint_5tuple(1.5, 21);
  trace_cfg.duration_s = 60.0;
  trace_cfg.flow_rate_per_s = 300.0;
  const auto trace = ft::generate_flow_trace(trace_cfg);

  fsim::SimConfig cfg;
  cfg.bin_seconds = 10.0;
  cfg.top_t = 5;
  cfg.sampling_rates = {0.01, 0.1, 0.5};
  cfg.runs = 10;
  cfg.seed = 3;
  cfg.num_threads = 1;
  const auto sequential = fsim::run_binned_simulation(trace, cfg);
  for (std::size_t threads : {2u, 4u, 7u}) {
    cfg.num_threads = threads;
    expect_bin_stats_identical(sequential, fsim::run_binned_simulation(trace, cfg),
                               threads);
  }
}

TEST(McModelSweep, ThreadCountsAreBitIdentical) {
  fc::RankingModelConfig cfg;
  cfg.n = 800;
  cfg.t = 5;
  cfg.p = 0.08;
  cfg.size_dist = std::make_shared<flowrank::dist::Pareto>(
      flowrank::dist::Pareto::from_mean(9.6, 1.5));

  const auto sequential = fc::run_mc_model(cfg, 40, /*seed=*/77, /*num_threads=*/1);
  for (std::size_t threads : {2u, 4u, 7u}) {
    const auto parallel = fc::run_mc_model(cfg, 40, 77, threads);
    EXPECT_EQ(sequential.ranking_metric.count(), parallel.ranking_metric.count());
    EXPECT_EQ(sequential.ranking_metric.mean(), parallel.ranking_metric.mean())
        << "threads " << threads;
    EXPECT_EQ(sequential.ranking_metric.stddev(), parallel.ranking_metric.stddev());
    EXPECT_EQ(sequential.detection_metric.mean(), parallel.detection_metric.mean());
    EXPECT_EQ(sequential.detection_metric.stddev(),
              parallel.detection_metric.stddev());
    EXPECT_EQ(sequential.top_set_recall.mean(), parallel.top_set_recall.mean());
    EXPECT_EQ(sequential.top_set_recall.stddev(), parallel.top_set_recall.stddev());
  }
}

TEST(McModelSweep, DefaultThreadArgumentKeepsLegacySignature) {
  fc::RankingModelConfig cfg;
  cfg.n = 200;
  cfg.t = 3;
  cfg.p = 0.2;
  cfg.size_dist = std::make_shared<flowrank::dist::Pareto>(
      flowrank::dist::Pareto::from_mean(9.6, 1.5));
  // Three-argument call (as every pre-existing caller uses) still works
  // and equals the explicit sequential call.
  const auto a = fc::run_mc_model(cfg, 10, 5);
  const auto b = fc::run_mc_model(cfg, 10, 5, 1);
  EXPECT_EQ(a.ranking_metric.mean(), b.ranking_metric.mean());
}
