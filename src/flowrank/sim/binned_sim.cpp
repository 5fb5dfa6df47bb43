#include "flowrank/sim/binned_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "flowrank/estimators/heavy_hitter_trackers.hpp"
#include "flowrank/estimators/tcp_seq.hpp"
#include "flowrank/exec/task_pool.hpp"
#include "flowrank/flowtable/binned_classifier.hpp"
#include "flowrank/ingest/sharded_pipeline.hpp"
#include "flowrank/sampler/packet_sampler.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/util/binomial_sample.hpp"
#include "flowrank/util/rng.hpp"

namespace flowrank::sim {

namespace {
void check_config(const SimConfig& config) {
  if (!(config.bin_seconds > 0.0)) {
    throw std::invalid_argument("sim: bin_seconds must be > 0");
  }
  if (config.top_t < 1) throw std::invalid_argument("sim: top_t >= 1");
  if (config.runs < 1) throw std::invalid_argument("sim: runs >= 1");
  for (double p : config.sampling_rates) {
    if (!(p > 0.0 && p <= 1.0)) {
      throw std::invalid_argument("sim: sampling rates must be in (0,1]");
    }
  }
}
}  // namespace

SimResult run_binned_simulation(const trace::FlowTrace& trace,
                                const SimConfig& config) {
  check_config(config);

  const trace::BinnedCounts counts = trace::bin_flow_counts(
      trace, config.bin_seconds, config.definition, /*placement_seed=*/config.seed);

  SimResult result;
  result.config = config;
  result.series.resize(config.sampling_rates.size());

  // The Monte-Carlo grid: one cell per (sampling rate, rankable bin).
  // Cells are fully independent — each (rate, run, bin) triple owns its
  // own splitmix-mixed RNG stream (the previous shift-packed mix
  // ((rate_idx << 40) ^ (run << 20) ^ b) reused streams once a trace had
  // >= 2^20 bins, correlating Monte-Carlo runs) and writes its own
  // BinStats slot, so the shared TaskPool may execute them on any thread
  // in any order and the result is still bit-identical to the sequential
  // walk. Within a cell, runs stay in run order: RunningStats folds are
  // order-sensitive in floating point.
  struct Cell {
    std::size_t rate_idx = 0;
    std::size_t bin = 0;
  };
  std::vector<Cell> cells;
  for (std::size_t rate_idx = 0; rate_idx < config.sampling_rates.size(); ++rate_idx) {
    RateSeries& series = result.series[rate_idx];
    series.sampling_rate = config.sampling_rates[rate_idx];
    series.bins.resize(counts.bins.size());
    for (std::size_t b = 0; b < counts.bins.size(); ++b) {
      series.bins[b].flows_in_bin = counts.bins[b].size();
      if (counts.bins[b].size() < config.top_t) continue;  // not enough to rank
      cells.push_back(Cell{rate_idx, b});
    }
  }

  const auto run_cell = [&](std::size_t cell_index) {
    // Reused per worker thread: the sweep's hot loop allocates nothing
    // after each worker's first cell.
    thread_local std::vector<std::uint64_t> true_sizes;
    thread_local std::vector<std::uint64_t> sampled_sizes;

    const Cell cell = cells[cell_index];
    const double p = config.sampling_rates[cell.rate_idx];
    const auto& bin = counts.bins[cell.bin];
    BinStats& stats = result.series[cell.rate_idx].bins[cell.bin];

    true_sizes.resize(bin.size());
    sampled_sizes.resize(bin.size());
    for (std::size_t i = 0; i < bin.size(); ++i) true_sizes[i] = bin[i].packets;

    // Everything that depends only on the bin's true population — the
    // descending true order, equal-size run extents, pair counts — is
    // computed once here and shared by all runs of the cell. Likewise the
    // thinner memoizes the per-flow-size binomial setup at this cell's
    // rate (same stream as sampler::thin_count, less setup per draw).
    metrics::RankMetricsContext context(true_sizes, config.top_t);
    util::BinomialThinner thin(p);

    for (int run = 0; run < config.runs; ++run) {
      auto engine = util::make_engine(
          config.seed,
          util::mix_streams(cell.rate_idx, static_cast<std::uint64_t>(run),
                            cell.bin));
      for (std::size_t i = 0; i < bin.size(); ++i) {
        sampled_sizes[i] = thin(true_sizes[i], engine);
      }
      const auto m = context.evaluate(sampled_sizes, config.tie_policy);
      stats.ranking.add(m.ranking_swapped);
      stats.detection.add(m.detection_swapped);
      stats.recall.add(m.top_set_recall);
    }
  };

  const std::size_t threads = exec::TaskPool::resolve_parallelism(config.num_threads);
  exec::TaskPool& pool = exec::TaskPool::shared();
  pool.ensure_workers(threads - 1);
  pool.parallel_for(cells.size(), run_cell, threads);
  return result;
}

namespace {

/// Fixed-point conversion for estimated (double) flow sizes: the rank
/// metrics take integer sizes, so estimates are scaled by 1024 — enough
/// resolution that distinct estimates stay distinct while equal estimates
/// stay ties, and large enough headroom (inverted multi-million-packet
/// flows at p = 1e-6 still fit 2^63 with orders of magnitude to spare).
std::uint64_t estimate_to_fixed(double estimate) {
  constexpr double kScale = 1024.0;
  if (!(estimate > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::llround(estimate * kScale));
}

}  // namespace

std::vector<PacketBinResult> run_packet_level_estimated(
    const trace::FlowTrace& trace, double sampling_rate, const SimConfig& config,
    std::uint64_t run_seed, std::size_t num_shards, const EstimatorStage& stage,
    bool collect_estimates) {
  check_config(config);
  if (!(sampling_rate > 0.0 && sampling_rate <= 1.0)) {
    throw std::invalid_argument("sim: sampling rate in (0,1]");
  }
  if (stage.kind == EstimatorStage::Kind::kSpaceSaving && stage.slots < 1) {
    throw std::invalid_argument("sim: space_saving estimator needs slots >= 1");
  }
  // Same convention as SimConfig::num_threads: 0 = all hardware threads.
  num_shards = exec::TaskPool::resolve_parallelism(num_shards);

  // Shared bin geometry with the count path: bin_length_ns rounds (0.3 s
  // is 300 000 000 ns, not the 299 999 999 a double truncation produced),
  // so the packet path's integer bin edges no longer drift away from
  // bin_flow_counts' double-division edges by one ns per bin.
  const std::int64_t bin_ns = trace::bin_length_ns(config.bin_seconds);
  const std::size_t total_bins =
      trace::bin_count(trace.config.duration_s, config.bin_seconds);
  if (total_bins == 0) return {};

  // Original and sampled per-bin flow sizes, keyed by flow identity.
  // Only the tcp_seq estimator needs more than a packet count on the
  // sampled side (it reads the sampled sequence-number span), so the
  // full-FlowCounter map is kept only for that stage — every other path
  // stays on the compact count map. Counter merges are order-insensitive
  // (sums and min/max widening), so the merged result is identical at
  // any shard count either way.
  using SizeMap = std::unordered_map<packet::FlowKey, std::uint64_t, packet::FlowKeyHash>;
  using CounterMap =
      std::unordered_map<packet::FlowKey, flowtable::FlowCounter, packet::FlowKeyHash>;
  const bool keep_counters = stage.kind == EstimatorStage::Kind::kTcpSeq;
  // Tracker stages read only the driver-thread trackers, so the sampled
  // side of the classifier (and its per-bin maps) is skipped entirely.
  const bool track_sah = stage.kind == EstimatorStage::Kind::kSampleAndHold;
  const bool track_ssv = stage.kind == EstimatorStage::Kind::kSpaceSaving;
  const bool classify_sampled = !track_sah && !track_ssv;
  std::vector<SizeMap> original(total_bins);
  std::vector<SizeMap> sampled(classify_sampled && !keep_counters ? total_bins : 0);
  std::vector<CounterMap> sampled_counters(keep_counters ? total_bins : 0);

  flowtable::FlowTable::Options table_opts;
  table_opts.definition = config.definition;

  // A packet landing exactly at duration_s classifies into bin
  // total_bins; clamp it into the final bin (the same clamp
  // bin_flow_counts applies to flow end times) instead of silently
  // dropping the whole final table flush.
  const auto merge_into = [](CounterMap& map, const flowtable::FlowCounter& f) {
    const auto [it, inserted] = map.try_emplace(f.key);
    if (inserted) it->second.key = f.key;
    flowtable::merge_counter(it->second, f);
  };
  const auto accumulate_original = [total_bins, &original](
                                       std::size_t bin,
                                       const flowtable::FlowTable& table) {
    const std::size_t clamped = std::min(bin, total_bins - 1);
    table.for_each_all([&original, clamped](const flowtable::FlowCounter& f) {
      original[clamped][f.key] += f.packets;
    });
  };
  const auto accumulate_sampled = [&](std::size_t bin,
                                      const flowtable::FlowTable& table) {
    const std::size_t clamped = std::min(bin, total_bins - 1);
    table.for_each_all([&, clamped](const flowtable::FlowCounter& f) {
      if (keep_counters) {
        merge_into(sampled_counters[clamped], f);
      } else {
        sampled[clamped][f.key] += f.packets;
      }
    });
  };

  // Memory-bounded trackers consume the sampled packets on the driver
  // thread (the shard workers never see them), so tracker state — which
  // is order-sensitive by design — is bit-identical at any shard count.
  // One tracker per bin: each measurement interval ranks independently.
  std::vector<std::unique_ptr<estimators::SampleAndHold>> sah_bins(
      track_sah ? total_bins : 0);
  std::vector<std::unique_ptr<estimators::SpaceSavingTracker>> ssv_bins(
      track_ssv ? total_bins : 0);
  const auto feed_trackers = [&](std::span<const packet::PacketRecord> selected) {
    if (!track_sah && !track_ssv) return;
    for (const auto& pkt : selected) {
      const auto bin = std::min(
          static_cast<std::size_t>(pkt.timestamp_ns / bin_ns), total_bins - 1);
      const auto key = packet::make_flow_key(pkt.tuple, config.definition);
      if (track_sah) {
        if (!sah_bins[bin]) {
          sah_bins[bin] = std::make_unique<estimators::SampleAndHold>(
              stage.hold_probability, stage.slots,
              util::mix_stream(run_seed, bin));
        }
        sah_bins[bin]->offer(key);
      } else {
        if (!ssv_bins[bin]) {
          ssv_bins[bin] = std::make_unique<estimators::SpaceSavingTracker>(stage.slots);
        }
        ssv_bins[bin]->offer(key);
      }
    }
  };

  // Batched ingest: pull a chunk of the packet stream, select the sampled
  // subset with the skip-based sampler (inherently sequential, so always
  // on this thread), and classify both streams — inline for num_shards ==
  // 1, on the sharded pipeline's workers otherwise. Identical counters
  // either way: the sampler sees the identical packet sequence, and
  // hash-sharding assigns every flow wholly to one shard.
  constexpr std::size_t kBatch = 4096;
  sampler::BernoulliSampler sampler(sampling_rate, run_seed);
  trace::PacketStream stream(trace);
  std::vector<packet::PacketRecord> batch, selected;
  batch.reserve(kBatch);
  selected.reserve(kBatch);

  if (num_shards == 1) {
    auto original_classifier = flowtable::BinnedClassifier::with_table_view(
        table_opts, bin_ns,
        [&](std::size_t bin, const flowtable::FlowTable& table) {
          accumulate_original(bin, table);
        });
    auto sampled_classifier = flowtable::BinnedClassifier::with_table_view(
        table_opts, bin_ns,
        [&](std::size_t bin, const flowtable::FlowTable& table) {
          accumulate_sampled(bin, table);
        });
    while (stream.next_batch(batch, kBatch) > 0) {
      original_classifier.add_batch(batch);
      sampler.select_into(batch, selected);
      feed_trackers(selected);
      if (classify_sampled) sampled_classifier.add_batch(selected);
    }
    original_classifier.finish();
    sampled_classifier.finish();
  } else {
    ingest::ShardedPipelineConfig pipe_cfg;
    pipe_cfg.num_shards = num_shards;
    // stream 0 = original, stream 1 = sampled (absent for tracker stages).
    pipe_cfg.num_streams = classify_sampled ? 2 : 1;
    pipe_cfg.bin_ns = bin_ns;
    pipe_cfg.table_options = table_opts;
    ingest::ShardedPipeline pipeline(pipe_cfg);
    while (stream.next_batch(batch, kBatch) > 0) {
      pipeline.add_batch(0, batch);
      sampler.select_into(batch, selected);
      feed_trackers(selected);
      if (classify_sampled) pipeline.add_batch(1, selected);
    }
    pipeline.finish();
    for (std::size_t b = 0; b < pipeline.bin_count(0); ++b) {
      const std::size_t clamped = std::min(b, total_bins - 1);
      for (const auto& f : pipeline.bin_flows(0, b)) {
        original[clamped][f.key] += f.packets;
      }
    }
    for (std::size_t b = 0; classify_sampled && b < pipeline.bin_count(1); ++b) {
      const std::size_t clamped = std::min(b, total_bins - 1);
      for (const auto& f : pipeline.bin_flows(1, b)) {
        if (keep_counters) {
          merge_into(sampled_counters[clamped], f);
        } else {
          sampled[clamped][f.key] += f.packets;
        }
      }
    }
  }

  // Per-bin estimated size of one flow, in original-stream packets.
  const double p = sampling_rate;
  const auto estimate_for = [&](std::size_t b, const packet::FlowKey& key,
                                const std::unordered_map<packet::FlowKey, double,
                                                         packet::FlowKeyHash>*
                                    tracked) -> double {
    switch (stage.kind) {
      case EstimatorStage::Kind::kNone:
      case EstimatorStage::Kind::kInversion: {
        const auto it = sampled[b].find(key);
        if (it == sampled[b].end()) return 0.0;
        const double count = static_cast<double>(it->second);
        return stage.kind == EstimatorStage::Kind::kNone ? count : count / p;
      }
      case EstimatorStage::Kind::kTcpSeq: {
        const auto it = sampled_counters[b].find(key);
        if (it == sampled_counters[b].end()) return 0.0;
        return estimators::estimate_size_tcp_seq(it->second, p,
                                                 trace.config.packet_size_bytes)
            .packets;
      }
      case EstimatorStage::Kind::kSampleAndHold:
      case EstimatorStage::Kind::kSpaceSaving: {
        const auto it = tracked->find(key);
        // Tracker estimates count sampled-stream packets; invert by p to
        // estimate the original size, like the raw-count inversion.
        return it == tracked->end() ? 0.0 : it->second / p;
      }
    }
    return 0.0;
  };

  std::vector<PacketBinResult> out;
  out.reserve(total_bins);
  // Key-sorted flow order: deterministic across platforms, hash-map
  // implementations and shard counts (the metrics' tie-breaks depend on
  // input order, so a canonical order is what makes the single-thread and
  // N-shard paths bit-identical).
  std::vector<std::pair<packet::FlowKey, std::uint64_t>> bin_flows;
  std::vector<std::uint64_t> true_sizes, sampled_sizes;
  std::unordered_map<packet::FlowKey, double, packet::FlowKeyHash> tracked;
  for (std::size_t b = 0; b < total_bins; ++b) {
    PacketBinResult bin_result;
    bin_result.flows_in_bin = original[b].size();
    if (original[b].size() < config.top_t) {
      out.push_back(std::move(bin_result));
      continue;
    }
    tracked.clear();
    if (track_sah && sah_bins[b]) {
      for (const auto& f : sah_bins[b]->flows()) tracked[f.key] = f.estimated_packets;
    } else if (track_ssv && ssv_bins[b]) {
      for (const auto& f : ssv_bins[b]->flows()) tracked[f.key] = f.estimated_packets;
    }

    bin_flows.assign(original[b].begin(), original[b].end());
    std::sort(bin_flows.begin(), bin_flows.end(),
              [](const auto& a, const auto& c) { return a.first < c.first; });
    true_sizes.clear();
    sampled_sizes.clear();
    for (const auto& [key, packets] : bin_flows) {
      true_sizes.push_back(packets);
      const double estimate = estimate_for(b, key, &tracked);
      // kNone keeps raw integer counts (bit-compatible with the
      // pre-estimator pipeline); estimators go through fixed point.
      sampled_sizes.push_back(stage.kind == EstimatorStage::Kind::kNone
                                  ? static_cast<std::uint64_t>(estimate)
                                  : estimate_to_fixed(estimate));
      if (collect_estimates) bin_result.estimates.emplace_back(key, estimate);
    }
    bin_result.metrics = metrics::compute_rank_metrics(
        true_sizes, sampled_sizes, config.top_t, config.tie_policy);
    out.push_back(std::move(bin_result));
  }
  return out;
}

std::vector<metrics::RankMetricsResult> run_packet_level_once(
    const trace::FlowTrace& trace, double sampling_rate, const SimConfig& config,
    std::uint64_t run_seed, std::size_t num_shards) {
  const auto bins = run_packet_level_estimated(trace, sampling_rate, config,
                                               run_seed, num_shards,
                                               EstimatorStage{});
  std::vector<metrics::RankMetricsResult> out;
  out.reserve(bins.size());
  for (const auto& bin : bins) out.push_back(bin.metrics);
  return out;
}

}  // namespace flowrank::sim
