// Tests for the sharded multi-threaded ingest pipeline: FlowTable merge
// semantics, and the load-bearing guarantee that hash-sharded
// classification is bit-identical to the single-threaded path at any
// shard count (per-bin flow counters and downstream rank metrics alike).
#include <condition_variable>
#include <map>
#include <mutex>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/exec/task_pool.hpp"
#include "flowrank/flowtable/binned_classifier.hpp"
#include "flowrank/ingest/sharded_pipeline.hpp"
#include "flowrank/sim/binned_sim.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/util/error.hpp"

namespace fp = flowrank::packet;
namespace ftab = flowrank::flowtable;
namespace fing = flowrank::ingest;
namespace ftr = flowrank::trace;
namespace fsim = flowrank::sim;

namespace {

fp::PacketRecord make_packet(std::uint32_t src_ip, std::int64_t ts_ns,
                             std::uint32_t bytes = 500) {
  fp::PacketRecord pkt;
  pkt.timestamp_ns = ts_ns;
  pkt.tuple.src_ip = src_ip;
  pkt.tuple.dst_ip = 0x0A000001;
  pkt.tuple.src_port = 1234;
  pkt.tuple.dst_port = 80;
  pkt.tuple.protocol = fp::Protocol::kTcp;
  pkt.size_bytes = bytes;
  return pkt;
}

/// A trace whose flows straddle many bin boundaries: mean duration well
/// above the 2.5 s bin used by the equivalence tests.
ftr::FlowTrace make_boundary_heavy_trace() {
  auto cfg = ftr::FlowTraceConfig::sprint_5tuple(1.5, /*seed=*/33);
  cfg.duration_s = 30.0;
  cfg.flow_rate_per_s = 120.0;
  return ftr::generate_flow_trace(cfg);
}

/// Canonical footprint of a table: every flow (completed subflows and
/// active entries) keyed and ordered so two tables can be compared
/// regardless of internal layout.
using FlowFootprint =
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::int64_t>,
             std::tuple<std::uint64_t, std::uint64_t, std::int64_t, std::int64_t>>;

void footprint_add(FlowFootprint& out, const ftab::FlowCounter& f) {
  // (key, first_ns) identifies a subflow even under timeout splitting.
  auto& entry = out[{f.key.hi, f.key.lo, f.first_ns}];
  entry = {std::get<0>(entry) + f.packets, std::get<1>(entry) + f.bytes,
           f.first_ns, f.last_ns};
}

FlowFootprint footprint(const ftab::FlowTable& table) {
  FlowFootprint out;
  table.for_each_all([&out](const ftab::FlowCounter& f) { footprint_add(out, f); });
  return out;
}

FlowFootprint footprint(std::span<const ftab::FlowCounter> flows) {
  FlowFootprint out;
  for (const auto& f : flows) footprint_add(out, f);
  return out;
}

/// Runs the whole trace through a single-threaded BinnedClassifier and
/// returns per-bin footprints.
std::vector<FlowFootprint> classify_inline(const ftr::FlowTrace& trace,
                                           const ftab::FlowTable::Options& opts,
                                           std::int64_t bin_ns) {
  std::vector<FlowFootprint> bins;
  auto classifier = ftab::BinnedClassifier::with_table_view(
      opts, bin_ns, [&bins](std::size_t bin, const ftab::FlowTable& table) {
        if (bins.size() <= bin) bins.resize(bin + 1);
        bins[bin] = footprint(table);
      });
  ftr::PacketStream stream(trace);
  std::vector<fp::PacketRecord> batch;
  while (stream.next_batch(batch, 4096) > 0) classifier.add_batch(batch);
  classifier.finish();
  return bins;
}

std::vector<FlowFootprint> classify_sharded(const ftr::FlowTrace& trace,
                                            const ftab::FlowTable::Options& opts,
                                            std::int64_t bin_ns,
                                            std::size_t num_shards) {
  fing::ShardedPipelineConfig cfg;
  cfg.num_shards = num_shards;
  cfg.num_streams = 1;
  cfg.bin_ns = bin_ns;
  cfg.table_options = opts;
  fing::ShardedPipeline pipeline(cfg);
  ftr::PacketStream stream(trace);
  std::vector<fp::PacketRecord> batch;
  while (stream.next_batch(batch, 4096) > 0) pipeline.add_batch(0, batch);
  pipeline.finish();
  std::vector<FlowFootprint> bins(pipeline.bin_count(0));
  for (std::size_t b = 0; b < bins.size(); ++b) {
    bins[b] = footprint(pipeline.bin_flows(0, b));
  }
  return bins;
}

}  // namespace

TEST(FlowTableMerge, MergeCounterFoldsEveryField) {
  ftab::FlowCounter a;
  a.packets = 3;
  a.bytes = 1500;
  a.first_ns = 100;
  a.last_ns = 900;
  ftab::FlowCounter b = a;
  b.packets = 2;
  b.bytes = 1000;
  b.first_ns = 50;
  b.last_ns = 600;
  b.min_tcp_seq = 10;
  b.max_tcp_seq = 2000;
  b.has_tcp_seq = true;

  ftab::merge_counter(a, b);
  EXPECT_EQ(a.packets, 5u);
  EXPECT_EQ(a.bytes, 2500u);
  EXPECT_EQ(a.first_ns, 50);
  EXPECT_EQ(a.last_ns, 900);
  EXPECT_TRUE(a.has_tcp_seq);
  EXPECT_EQ(a.min_tcp_seq, 10u);
  EXPECT_EQ(a.max_tcp_seq, 2000u);
}

TEST(FlowTableMerge, MergeFromUnionsDisjointTables) {
  const ftab::FlowTable::Options opts{fp::FlowDefinition::kFiveTuple, 0};
  ftab::FlowTable a(opts), b(opts);
  for (std::uint32_t ip = 0; ip < 10; ++ip) a.add(make_packet(ip, 1000 + ip));
  for (std::uint32_t ip = 100; ip < 120; ++ip) b.add(make_packet(ip, 2000 + ip));

  ftab::FlowTable merged(opts);
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.size(), 30u);

  auto expected = footprint(a);
  for (auto& [key, value] : footprint(b)) expected[key] = value;
  EXPECT_EQ(footprint(merged), expected);
}

TEST(FlowTableMerge, MergeFromAccumulatesOnKeyCollision) {
  const ftab::FlowTable::Options opts{fp::FlowDefinition::kFiveTuple, 0};
  ftab::FlowTable a(opts), b(opts);
  a.add(make_packet(7, 100));
  a.add(make_packet(7, 200));
  b.add(make_packet(7, 150));

  a.merge_from(b);
  EXPECT_EQ(a.size(), 1u);
  a.for_each_active([](const ftab::FlowCounter& f) {
    EXPECT_EQ(f.packets, 3u);
    EXPECT_EQ(f.first_ns, 100);
    EXPECT_EQ(f.last_ns, 200);
  });
}

TEST(FlowTableMerge, MergeFromKeepsCompletedSubflowsSeparate) {
  ftab::FlowTable::Options opts{fp::FlowDefinition::kFiveTuple, 0};
  opts.idle_timeout_ns = 100;
  ftab::FlowTable split(opts);
  split.add(make_packet(1, 0));
  split.add(make_packet(1, 1000));  // idle gap: first packet becomes a subflow

  ftab::FlowTable merged(opts);
  merged.merge_from(split);
  EXPECT_EQ(merged.completed().size(), 1u);
  EXPECT_EQ(merged.size(), 1u);
  EXPECT_EQ(footprint(merged), footprint(split));
}

TEST(ShardedPipeline, RejectsBadConfigs) {
  fing::ShardedPipelineConfig cfg;
  cfg.bin_ns = 1000;
  cfg.num_streams = 0;
  EXPECT_THROW(fing::ShardedPipeline{cfg}, std::invalid_argument);
  cfg.num_streams = 1;
  cfg.bin_ns = 0;
  EXPECT_THROW(fing::ShardedPipeline{cfg}, std::invalid_argument);
  // Absurd shard counts fail fast instead of flooding the pool.
  cfg.bin_ns = 1000;
  cfg.num_shards = flowrank::exec::TaskPool::kMaxParallelism + 1;
  EXPECT_THROW(fing::ShardedPipeline{cfg}, std::invalid_argument);
}

TEST(ShardedPipeline, ZeroShardsMeansAllHardwareThreads) {
  fing::ShardedPipelineConfig cfg;
  cfg.bin_ns = 1000;
  cfg.num_shards = 0;  // same convention as SimConfig::num_threads
  fing::ShardedPipeline pipeline(cfg);
  EXPECT_GE(pipeline.config().num_shards, 1u);
  const std::vector<fp::PacketRecord> batch{make_packet(1, 10), make_packet(2, 20)};
  pipeline.add_batch(0, batch);
  pipeline.finish();
  EXPECT_EQ(pipeline.bin_count(0), 1u);
  EXPECT_EQ(pipeline.bin_flows(0, 0).size(), 2u);
}

TEST(ShardedPipeline, LifecycleGuards) {
  fing::ShardedPipelineConfig cfg;
  cfg.bin_ns = 1000;
  fing::ShardedPipeline pipeline(cfg);
  EXPECT_THROW((void)pipeline.bin_count(0), std::logic_error);
  pipeline.finish();
  pipeline.finish();  // idempotent
  EXPECT_EQ(pipeline.bin_count(0), 0u);
  const std::vector<fp::PacketRecord> batch{make_packet(1, 10)};
  EXPECT_THROW(pipeline.add_batch(0, batch), std::logic_error);
  EXPECT_THROW((void)pipeline.bin_flows(0, 0), std::out_of_range);
}

// Retire-teardown race: once a driver in drain_all() sees a drain task
// retired, finish() returns and the pipeline may free the Shard, so the
// task must not touch the Shard after that point (see
// ShardedPipeline::drain_shard). Many short pipelines, each torn down
// right after finish() on its own two-worker pool, give a use-after-free
// there many chances to show under the ASan and TSan builds. The window
// is narrow, so a pass is evidence, not proof; the protocol's argument is
// in drain_shard.
TEST(ShardedPipeline, ShortPipelinesTearDownRightAfterFinish) {
  std::vector<fp::PacketRecord> packets;
  for (std::uint32_t i = 0; i < 512; ++i) {
    packets.push_back(make_packet(1 + i % 64, static_cast<std::int64_t>(i) * 10));
  }
  for (int run = 0; run < 2000; ++run) {
    flowrank::exec::TaskPool pool(2);
    fing::ShardedPipelineConfig cfg;
    cfg.num_shards = 2;
    cfg.bin_ns = 1'000'000;
    cfg.chunk_packets = 64;
    cfg.pool = &pool;
    std::uint64_t classified = 0;
    {
      fing::ShardedPipeline pipeline(cfg);
      pipeline.add_batch(0, packets);
      pipeline.finish();
      for (const auto& f : pipeline.bin_flows(0, 0)) classified += f.packets;
    }
    ASSERT_EQ(classified, packets.size()) << "run " << run;
  }
}

TEST(ShardedPipeline, StreamsAreIndependent) {
  fing::ShardedPipelineConfig cfg;
  cfg.num_shards = 2;
  cfg.num_streams = 2;
  cfg.bin_ns = 1000;
  fing::ShardedPipeline pipeline(cfg);
  const std::vector<fp::PacketRecord> batch0{make_packet(1, 10), make_packet(2, 20)};
  const std::vector<fp::PacketRecord> batch1{make_packet(3, 2500)};
  pipeline.add_batch(0, batch0);
  pipeline.add_batch(1, batch1);
  pipeline.finish();

  ASSERT_EQ(pipeline.bin_count(0), 1u);
  ASSERT_EQ(pipeline.bin_count(1), 3u);
  EXPECT_EQ(pipeline.bin_flows(0, 0).size(), 2u);
  EXPECT_EQ(pipeline.bin_flows(1, 0).size(), 0u);
  EXPECT_EQ(pipeline.bin_flows(1, 2).size(), 1u);
}

TEST(ShardedPipeline, StreamingCallbackReplacesRetention) {
  const auto trace = make_boundary_heavy_trace();
  const ftab::FlowTable::Options opts{fp::FlowDefinition::kFiveTuple, 0};
  const std::int64_t bin_ns = ftr::bin_length_ns(2.5);

  // Streamed flushes, folded into per-bin footprints under a lock (the
  // callback runs on whichever worker flushes).
  std::mutex mutex;
  std::vector<FlowFootprint> streamed;
  fing::ShardedPipelineConfig cfg;
  cfg.num_shards = 4;
  cfg.bin_ns = bin_ns;
  cfg.table_options = opts;
  cfg.on_shard_bin = [&](std::size_t shard, std::size_t stream, std::size_t bin,
                         const ftab::FlowTable& table) {
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(stream, 0u);
    std::lock_guard lock(mutex);
    if (streamed.size() <= bin) streamed.resize(bin + 1);
    table.for_each_all(
        [&](const ftab::FlowCounter& f) { footprint_add(streamed[bin], f); });
  };
  fing::ShardedPipeline pipeline(cfg);
  ftr::PacketStream stream(trace);
  std::vector<fp::PacketRecord> batch;
  while (stream.next_batch(batch, 4096) > 0) pipeline.add_batch(0, batch);
  pipeline.finish();

  EXPECT_EQ(pipeline.bin_count(0), 0u);  // nothing retained
  EXPECT_EQ(streamed, classify_inline(trace, opts, bin_ns));
}

TEST(ShardedPipeline, ShardCountsAreBitIdenticalToInline) {
  const auto trace = make_boundary_heavy_trace();
  const ftab::FlowTable::Options opts{fp::FlowDefinition::kFiveTuple, 0};
  const std::int64_t bin_ns = ftr::bin_length_ns(2.5);

  const auto inline_bins = classify_inline(trace, opts, bin_ns);
  ASSERT_GE(inline_bins.size(), 12u);
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    const auto sharded_bins = classify_sharded(trace, opts, bin_ns, shards);
    ASSERT_EQ(sharded_bins.size(), inline_bins.size()) << shards << " shards";
    for (std::size_t b = 0; b < inline_bins.size(); ++b) {
      EXPECT_EQ(sharded_bins[b], inline_bins[b])
          << shards << " shards, bin " << b;
    }
  }
}

TEST(ShardedPipeline, TimeoutSplittingSurvivesSharding) {
  const auto trace = make_boundary_heavy_trace();
  ftab::FlowTable::Options opts{fp::FlowDefinition::kFiveTuple, 0};
  opts.idle_timeout_ns = 500'000'000;  // 0.5 s: plenty of splits
  const std::int64_t bin_ns = ftr::bin_length_ns(5.0);

  const auto inline_bins = classify_inline(trace, opts, bin_ns);
  const auto sharded_bins = classify_sharded(trace, opts, bin_ns, 4);
  EXPECT_EQ(sharded_bins, inline_bins);
}

namespace {

/// A flush callback that takes the worker hostage: it records each
/// flushed bin's packet total, then blocks until released. With a
/// one-chunk queue this wedges the shard deterministically, which is how
/// the overload-policy tests force the full-queue path.
struct HostageFlush {
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  std::map<std::size_t, std::uint64_t> flushed;  // bin -> packets

  auto callback() {
    return [this](std::size_t, std::size_t, std::size_t bin,
                  const ftab::FlowTable& table) {
      std::unique_lock lock(mutex);
      std::uint64_t packets = 0;
      table.for_each_all(
          [&](const ftab::FlowCounter& f) { packets += f.packets; });
      flushed[bin] += packets;
      cv.wait(lock, [this] { return released; });
    };
  }

  void release() {
    {
      std::lock_guard lock(mutex);
      released = true;
    }
    cv.notify_all();
  }
};

fing::ShardedPipelineConfig tiny_queue_config(HostageFlush& hostage) {
  fing::ShardedPipelineConfig cfg;
  cfg.num_shards = 1;
  cfg.bin_ns = 1000;  // every test packet lands in its own bin
  cfg.table_options = {fp::FlowDefinition::kFiveTuple, 0};
  cfg.max_queue_chunks = 1;
  cfg.chunk_packets = 1;  // every packet is its own chunk
  cfg.on_shard_bin = hostage.callback();
  return cfg;
}

}  // namespace

TEST(ShardedPipeline, ShedPolicyDropsAndCountsOnFullQueue) {
  HostageFlush hostage;
  auto cfg = tiny_queue_config(hostage);
  cfg.overload = fing::OverloadPolicy::kShed;
  fing::ShardedPipeline pipeline(cfg);

  // The worker wedges on the first bin flush; with a one-chunk queue the
  // driver must hit the shed path within a handful of adds.
  std::int64_t ts = 0;
  bool shed = false;
  for (int i = 0; i < 10000 && !shed; ++i) {
    ts += 1000;
    const fp::PacketRecord pkt = make_packet(1, ts);
    pipeline.add_batch(0, std::span<const fp::PacketRecord>(&pkt, 1));
    shed = pipeline.overload_stats().shed_packets > 0;
  }
  EXPECT_TRUE(shed) << "shed path never hit";

  hostage.release();
  pipeline.finish();

  const fing::OverloadStats stats = pipeline.overload_stats();
  EXPECT_GT(stats.queue_full_events, 0u);
  EXPECT_GT(stats.shed_chunks, 0u);
  EXPECT_EQ(stats.shed_packets, stats.shed_chunks);  // one-packet chunks
}

TEST(ShardedPipeline, BlockDeadlineFailsLoudlyOnWedgedShard) {
  HostageFlush hostage;
  auto cfg = tiny_queue_config(hostage);
  cfg.overload = fing::OverloadPolicy::kBlock;
  cfg.block_deadline_ms = 20;
  fing::ShardedPipeline pipeline(cfg);

  std::int64_t ts = 0;
  bool threw = false;
  try {
    for (int i = 0; i < 1000; ++i) {
      ts += 1000;
      const fp::PacketRecord pkt = make_packet(1, ts);
      pipeline.add_batch(0, std::span<const fp::PacketRecord>(&pkt, 1));
    }
  } catch (const flowrank::Error& e) {
    threw = true;
    EXPECT_EQ(e.category(), flowrank::ErrorCategory::kStalled);
    EXPECT_EQ(e.context(), "ingest");
    EXPECT_NE(std::string(e.what()).find("wedged"), std::string::npos);
  }
  EXPECT_TRUE(threw) << "block deadline never fired";

  hostage.release();
  pipeline.finish();
  EXPECT_GT(pipeline.overload_stats().queue_full_events, 0u);
}

TEST(ShardedPipeline, RotateEpochFlushesThroughRequestedBin) {
  std::mutex mutex;
  std::map<std::size_t, std::uint64_t> flushed;  // bin -> packets

  fing::ShardedPipelineConfig cfg;
  cfg.num_shards = 1;
  cfg.bin_ns = 1000;
  cfg.table_options = {fp::FlowDefinition::kFiveTuple, 0};
  cfg.on_shard_bin = [&](std::size_t, std::size_t, std::size_t bin,
                         const ftab::FlowTable& table) {
    std::lock_guard lock(mutex);
    std::uint64_t packets = 0;
    table.for_each_all(
        [&](const ftab::FlowCounter& f) { packets += f.packets; });
    flushed[bin] += packets;
  };
  fing::ShardedPipeline pipeline(cfg);

  // Two packets in bin 0; rotating to bin 2 flushes everything below it
  // synchronously (the monitor's window-boundary move).
  const fp::PacketRecord bin0[] = {make_packet(1, 100), make_packet(2, 200)};
  pipeline.add_batch(0, bin0);
  pipeline.rotate_epoch(2);
  {
    std::lock_guard lock(mutex);
    ASSERT_TRUE(flushed.count(0));
    EXPECT_EQ(flushed[0], 2u);
  }

  // Ingest continues after the rotation; finish() flushes the new bin.
  const fp::PacketRecord bin2 = make_packet(3, 2500);
  pipeline.add_batch(0, std::span<const fp::PacketRecord>(&bin2, 1));
  pipeline.finish();
  {
    std::lock_guard lock(mutex);
    ASSERT_TRUE(flushed.count(2));
    EXPECT_EQ(flushed[2], 1u);
  }
  EXPECT_THROW(pipeline.rotate_epoch(3), std::logic_error);
}

TEST(ShardedSim, PacketLevelMetricsBitIdenticalAcrossShardCounts) {
  const auto trace = make_boundary_heavy_trace();
  fsim::SimConfig cfg;
  cfg.bin_seconds = 2.5;
  cfg.top_t = 5;
  cfg.sampling_rates = {0.2};
  cfg.seed = 17;

  const auto reference = fsim::run_packet_level_once(trace, 0.2, cfg, 77);
  ASSERT_GE(reference.size(), 12u);
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    const auto sharded = fsim::run_packet_level_once(trace, 0.2, cfg, 77, shards);
    ASSERT_EQ(sharded.size(), reference.size());
    for (std::size_t b = 0; b < reference.size(); ++b) {
      EXPECT_EQ(sharded[b].ranking_swapped, reference[b].ranking_swapped)
          << shards << " shards, bin " << b;
      EXPECT_EQ(sharded[b].detection_swapped, reference[b].detection_swapped)
          << shards << " shards, bin " << b;
      EXPECT_EQ(sharded[b].ranking_pairs, reference[b].ranking_pairs)
          << shards << " shards, bin " << b;
      EXPECT_EQ(sharded[b].detection_pairs, reference[b].detection_pairs)
          << shards << " shards, bin " << b;
      EXPECT_EQ(sharded[b].top_set_recall, reference[b].top_set_recall)
          << shards << " shards, bin " << b;
    }
  }
}

TEST(ShardedSim, ZeroShardsResolvesToHardwareThreads) {
  // 0 shards = all hardware threads, the same convention every other
  // thread knob uses — and still bit-identical to the sequential path.
  const auto trace = make_boundary_heavy_trace();
  fsim::SimConfig cfg;
  cfg.bin_seconds = 2.5;
  cfg.top_t = 5;
  cfg.sampling_rates = {0.2};
  cfg.seed = 17;
  const auto reference = fsim::run_packet_level_once(trace, 0.2, cfg, 77);
  const auto resolved = fsim::run_packet_level_once(trace, 0.2, cfg, 77, 0);
  ASSERT_EQ(resolved.size(), reference.size());
  for (std::size_t b = 0; b < reference.size(); ++b) {
    EXPECT_EQ(resolved[b].ranking_swapped, reference[b].ranking_swapped);
    EXPECT_EQ(resolved[b].top_set_recall, reference[b].top_set_recall);
  }
}

TEST(ShardedSim, RejectsAbsurdShardCounts) {
  const auto trace = make_boundary_heavy_trace();
  fsim::SimConfig cfg;
  cfg.bin_seconds = 10.0;
  EXPECT_THROW((void)fsim::run_packet_level_once(
                   trace, 0.5, cfg, 1, flowrank::exec::TaskPool::kMaxParallelism + 1),
               std::invalid_argument);
}
