// Trace-driven sampling simulation (Sec. 8).
//
// Pipeline per the paper: generate the packet-level trace from flow
// records, sample it at rate p, cut into bins (measurement intervals),
// classify into flows within each bin, rank, and compare the sampled
// ranking to the unsampled one — repeated over many runs to get the mean
// and standard deviation of the swapped-pair metrics per bin.
//
// Two execution paths produce identically-distributed metrics:
//  * the count path (default): per-(flow,bin) packet counts + binomial
//    thinning — fast enough for 30 runs x 4 rates x 30-minute traces;
//  * the packet path: full packet stream + Bernoulli sampler + binned
//    flow table — the "production" pipeline, used for cross-validation
//    and by the examples.
#pragma once

#include <cstdint>
#include <vector>

#include "flowrank/metrics/rank_metrics.hpp"
#include "flowrank/numeric/stats.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"

namespace flowrank::sim {

/// Simulation parameters.
struct SimConfig {
  double bin_seconds = 60.0;                 ///< measurement interval
  std::size_t top_t = 10;                    ///< flows to rank/detect
  std::vector<double> sampling_rates{0.001, 0.01, 0.1, 0.5};
  int runs = 30;                             ///< paper: 30 sampling runs
  packet::FlowDefinition definition = packet::FlowDefinition::kFiveTuple;
  metrics::TiePolicy tie_policy = metrics::TiePolicy::kPaper;
  std::uint64_t seed = 1;
  /// Worker threads for the (rate, bin) Monte-Carlo grid (on the shared
  /// exec::TaskPool); every cell has its own RNG stream
  /// (util::mix_streams), so results are bit-identical at any thread
  /// count. 1 = sequential, 0 = all hardware threads.
  std::size_t num_threads = 1;
};

/// Per-bin aggregates over runs at one sampling rate.
struct BinStats {
  numeric::RunningStats ranking;    ///< swapped pairs, ranking metric
  numeric::RunningStats detection;  ///< swapped pairs, detection metric
  numeric::RunningStats recall;     ///< top-set recall
  std::size_t flows_in_bin = 0;     ///< original flows present in the bin
};

/// One sampling rate's series across bins.
struct RateSeries {
  double sampling_rate = 0.0;
  std::vector<BinStats> bins;
};

/// Whole simulation output.
struct SimResult {
  SimConfig config;
  std::vector<RateSeries> series;  ///< one entry per sampling rate
};

/// Runs the count-path simulation over a generated flow trace.
/// Deterministic in (trace.config.seed, config.seed) — including across
/// `config.num_threads`: the (rate, bin) grid cells are independent tasks
/// on the shared exec::TaskPool, each seeded by its own mix_streams
/// stream, with per-cell results folded back in (rate, bin, run) order, so
/// any thread count reproduces the sequential output bit for bit. Bins
/// whose original flow population is smaller than top_t are skipped (stats
/// left empty).
[[nodiscard]] SimResult run_binned_simulation(const trace::FlowTrace& trace,
                                              const SimConfig& config);

/// Packet-path single run: returns the per-bin metrics of one sampling
/// pass over the real packet stream (used in tests to validate the count
/// path, and by examples as the reference pipeline).
///
/// `num_shards` > 1 routes classification through the multi-threaded
/// ingest::ShardedPipeline (one worker per shard, 0 = all hardware
/// threads); sampling stays on the driver thread, so the result is
/// bit-identical to the single-threaded path for the same `run_seed` at
/// any shard count.
[[nodiscard]] std::vector<metrics::RankMetricsResult> run_packet_level_once(
    const trace::FlowTrace& trace, double sampling_rate, const SimConfig& config,
    std::uint64_t run_seed, std::size_t num_shards = 1);

/// A flow-size estimation stage between the sampled stream and the
/// ranking (the paper's sampled → estimated → ranked loop). Declared in
/// experiment specs as
///   estimator = inversion | tcp_seq | sample_and_hold:slots=K[,hold=H]
///             | space_saving:slots=K
/// (sim/experiment.hpp parses the grammar).
struct EstimatorStage {
  enum class Kind {
    kNone,           ///< rank raw sampled counts (run_packet_level_once)
    kInversion,      ///< estimators::scaled_size_estimate: Ŝ = s/p
    kTcpSeq,         ///< estimators::estimate_size_tcp_seq (seq-span based)
    kSampleAndHold,  ///< estimators::SampleAndHold over the sampled stream
    kSpaceSaving,    ///< estimators::SpaceSavingTracker over the sampled stream
  };
  Kind kind = Kind::kNone;
  /// Tracker capacity (sample_and_hold: 0 = unbounded; space_saving >= 1).
  std::size_t slots = 1024;
  /// sample_and_hold per-packet entry probability.
  double hold_probability = 0.1;
};

/// One bin of an estimator-staged packet run.
struct PacketBinResult {
  metrics::RankMetricsResult metrics;
  std::size_t flows_in_bin = 0;  ///< original flows present in the bin
  /// Key-sorted (key, estimated original size) for every original flow in
  /// the bin; filled only when collect_estimates was set (tests compare
  /// these bit for bit against direct estimator calls).
  std::vector<std::pair<packet::FlowKey, double>> estimates;
};

/// Packet-path single run with an estimator stage: the sampled stream's
/// per-flow sizes are replaced by the stage's estimates (converted to
/// fixed point, x1024, for the integer rank metrics) before ranking, so
/// the metrics measure the combined sampling + estimation error.
///
/// Memory-bounded trackers consume the sampled packets on the driver
/// thread (one tracker per bin, SampleAndHold seeded with
/// mix_stream(run_seed, bin)); inversion/tcp_seq read the merged per-bin
/// sampled counters. Either way the result is bit-identical at any
/// `num_shards`, like run_packet_level_once. kNone reproduces
/// run_packet_level_once's metrics exactly (raw counts, no fixed point).
[[nodiscard]] std::vector<PacketBinResult> run_packet_level_estimated(
    const trace::FlowTrace& trace, double sampling_rate, const SimConfig& config,
    std::uint64_t run_seed, std::size_t num_shards, const EstimatorStage& stage,
    bool collect_estimates = false);

}  // namespace flowrank::sim
