// Tests for the batched ingest pipeline: the flat open-addressing flow
// table (collisions, growth, timeout splitting, clear/reuse), batch vs
// per-packet equivalence of the sampler and tables, and the distribution
// of the skip-based Bernoulli sampler.
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/core/misranking.hpp"
#include "flowrank/flowtable/binned_classifier.hpp"
#include "flowrank/flowtable/flow_table.hpp"
#include "flowrank/numeric/binomial.hpp"
#include "flowrank/sampler/packet_sampler.hpp"
#include "flowrank/util/rng.hpp"

namespace fp = flowrank::packet;
namespace fs = flowrank::sampler;
namespace ff = flowrank::flowtable;

namespace {

fp::PacketRecord make_packet(std::int64_t ts_ns, std::uint32_t src,
                             std::uint32_t dst = 2,
                             fp::Protocol proto = fp::Protocol::kTcp,
                             std::uint32_t seq = 0) {
  fp::PacketRecord pkt;
  pkt.timestamp_ns = ts_ns;
  pkt.tuple = fp::FiveTuple{src, dst, 10, 80, proto};
  pkt.size_bytes = 500;
  pkt.tcp_seq = seq;
  return pkt;
}

/// A random packet workload over `flow_count` flows.
std::vector<fp::PacketRecord> make_workload(std::size_t packets,
                                            std::uint32_t flow_count,
                                            std::uint64_t seed) {
  std::vector<fp::PacketRecord> out;
  out.reserve(packets);
  auto engine = flowrank::util::make_engine(seed);
  for (std::size_t i = 0; i < packets; ++i) {
    const auto src = static_cast<std::uint32_t>(engine() % flow_count);
    out.push_back(make_packet(static_cast<std::int64_t>(i) * 1000, src,
                              /*dst=*/src % 7,
                              src % 3 == 0 ? fp::Protocol::kUdp : fp::Protocol::kTcp,
                              static_cast<std::uint32_t>(i)));
  }
  return out;
}

/// Canonical view of a table's flows for comparisons: all counters keyed
/// and ordered by flow key (merging is not needed — keys are unique per
/// state within active(), and completed subflows are tagged by first_ns).
std::vector<ff::FlowCounter> canonical_flows(const ff::FlowTable& table) {
  std::vector<ff::FlowCounter> flows;
  table.for_each_all([&flows](const ff::FlowCounter& f) { flows.push_back(f); });
  std::sort(flows.begin(), flows.end(),
            [](const ff::FlowCounter& a, const ff::FlowCounter& b) {
              if (!(a.key == b.key)) return a.key < b.key;
              return a.first_ns < b.first_ns;
            });
  return flows;
}

void expect_identical(const std::vector<ff::FlowCounter>& a,
                      const std::vector<ff::FlowCounter>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << i;
    EXPECT_EQ(a[i].packets, b[i].packets) << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << i;
    EXPECT_EQ(a[i].first_ns, b[i].first_ns) << i;
    EXPECT_EQ(a[i].last_ns, b[i].last_ns) << i;
    EXPECT_EQ(a[i].min_tcp_seq, b[i].min_tcp_seq) << i;
    EXPECT_EQ(a[i].max_tcp_seq, b[i].max_tcp_seq) << i;
    EXPECT_EQ(a[i].has_tcp_seq, b[i].has_tcp_seq) << i;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Flat open-addressing table
// ---------------------------------------------------------------------------

TEST(FlatFlowTable, CollisionHeavyGrowthMatchesReferenceCounts) {
  // Start tiny so thousands of distinct flows force long probe chains and
  // repeated growth; validate every counter against a reference map.
  ff::FlowTable table({fp::FlowDefinition::kFiveTuple, 0, /*initial_capacity=*/64});
  std::unordered_map<std::uint32_t, std::uint64_t> reference;
  const auto workload = make_workload(60000, 7919, /*seed=*/5);
  for (const auto& pkt : workload) {
    table.add(pkt);
    ++reference[pkt.tuple.src_ip];
  }
  EXPECT_EQ(table.size(), reference.size());
  EXPECT_GE(table.capacity(), table.size());
  // Totals must agree flow-by-flow: aggregate both sides by packet count
  // multiset (key packing is an implementation detail of make_flow_key).
  std::multiset<std::uint64_t> table_counts, ref_counts;
  table.for_each_active(
      [&](const ff::FlowCounter& f) { table_counts.insert(f.packets); });
  for (const auto& [src, count] : reference) ref_counts.insert(count);
  EXPECT_EQ(table_counts, ref_counts);
}

TEST(FlatFlowTable, ActiveMatchesForEachActive) {
  ff::FlowTable table({fp::FlowDefinition::kFiveTuple, 0});
  for (const auto& pkt : make_workload(5000, 257, 9)) table.add(pkt);
  const auto copied = table.active();
  std::vector<ff::FlowCounter> streamed;
  table.for_each_active([&](const ff::FlowCounter& f) { streamed.push_back(f); });
  ASSERT_EQ(copied.size(), streamed.size());
  for (std::size_t i = 0; i < copied.size(); ++i) {
    EXPECT_EQ(copied[i].key, streamed[i].key);
    EXPECT_EQ(copied[i].packets, streamed[i].packets);
  }
}

TEST(FlatFlowTable, TimeoutSplitRewritesSlotWithoutTombstones) {
  ff::FlowTable table({fp::FlowDefinition::kFiveTuple, /*idle_timeout_ns=*/1000,
                       /*initial_capacity=*/64});
  // Three flows, each split twice by idle gaps.
  for (std::uint32_t src : {1u, 2u, 3u}) {
    table.add(make_packet(0, src));
    table.add(make_packet(100, src));
    table.add(make_packet(5000, src));   // split 1
    table.add(make_packet(10000, src));  // split 2
  }
  EXPECT_EQ(table.size(), 3u);  // one live entry per key, slots reused
  EXPECT_EQ(table.completed().size(), 6u);
  for (const auto& sub : table.completed()) {
    EXPECT_GE(sub.packets, 1u);
  }
  // all() = completed + active.
  EXPECT_EQ(table.all().size(), 9u);
}

TEST(FlatFlowTable, ClearRetainsCapacityAndReusesSlots) {
  ff::FlowTable table({fp::FlowDefinition::kFiveTuple, 100, 64});
  const auto workload = make_workload(20000, 4001, 3);
  for (const auto& pkt : workload) table.add(pkt);
  const std::size_t grown_capacity = table.capacity();
  EXPECT_GT(grown_capacity, 64u);

  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.completed().empty());
  EXPECT_EQ(table.capacity(), grown_capacity);
  std::size_t visited = 0;
  table.for_each_all([&visited](const ff::FlowCounter&) { ++visited; });
  EXPECT_EQ(visited, 0u);

  // Refill with a different workload: counters must reflect only the new
  // packets (no stale state behind the cleared probe array).
  table.add(make_packet(0, 77));
  table.add(make_packet(10, 77));
  const auto flows = table.active();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].packets, 2u);
  EXPECT_EQ(flows[0].first_ns, 0);
  EXPECT_EQ(flows[0].last_ns, 10);
}

TEST(FlatFlowTable, AddBatchEqualsPerPacketAdd) {
  const auto workload = make_workload(30000, 997, 11);
  for (std::size_t batch_size : {1ul, 7ul, 256ul, 30000ul}) {
    ff::FlowTable per_packet({fp::FlowDefinition::kFiveTuple, 2500, 64});
    ff::FlowTable batched({fp::FlowDefinition::kFiveTuple, 2500, 64});
    for (const auto& pkt : workload) per_packet.add(pkt);
    const std::span<const fp::PacketRecord> all(workload);
    for (std::size_t start = 0; start < all.size(); start += batch_size) {
      batched.add_batch(all.subspan(start, std::min(batch_size, all.size() - start)));
    }
    expect_identical(canonical_flows(per_packet), canonical_flows(batched));
  }
}

// ---------------------------------------------------------------------------
// Batch vs per-packet equivalence of the full sampled pipeline
// ---------------------------------------------------------------------------

namespace {

/// Runs `sampler` over the workload per-packet (offer + add) and returns
/// the sampled table's canonical flows.
std::vector<ff::FlowCounter> run_per_packet(fs::BernoulliSampler sampler,
                                            std::span<const fp::PacketRecord> pkts) {
  ff::FlowTable table({fp::FlowDefinition::kFiveTuple, 0});
  for (const auto& pkt : pkts) {
    if (sampler.offer(pkt)) table.add(pkt);
  }
  return canonical_flows(table);
}

/// Runs `sampler` over the workload in batches (select + add_batch).
std::vector<ff::FlowCounter> run_batched(fs::BernoulliSampler sampler,
                                         std::span<const fp::PacketRecord> pkts,
                                         std::size_t batch_size) {
  ff::FlowTable table({fp::FlowDefinition::kFiveTuple, 0});
  std::vector<std::uint32_t> indices;
  std::vector<fp::PacketRecord> selected;
  for (std::size_t start = 0; start < pkts.size(); start += batch_size) {
    const auto batch = pkts.subspan(start, std::min(batch_size, pkts.size() - start));
    indices.clear();
    sampler.select(batch, indices);
    selected.clear();
    for (const std::uint32_t i : indices) selected.push_back(batch[i]);
    table.add_batch(selected);
  }
  return canonical_flows(table);
}

}  // namespace

TEST(BatchEquivalence, BernoulliSelectsIdenticalPacketsAsOffer) {
  const auto workload = make_workload(50000, 307, 21);
  for (double p : {0.001, 0.05, 0.5, 1.0}) {
    const auto reference = run_per_packet(fs::BernoulliSampler(p, 77), workload);
    for (std::size_t batch_size : {1ul, 13ul, 4096ul}) {
      expect_identical(reference,
                       run_batched(fs::BernoulliSampler(p, 77), workload, batch_size));
    }
  }
}

TEST(BatchEquivalence, BinnedClassifierAddBatchMatchesAdd) {
  const auto workload = make_workload(30000, 211, 31);  // 1 us apart, bins below
  const std::int64_t bin_ns = 1000 * 1024;              // boundaries mid-batch
  std::map<std::size_t, std::uint64_t> per_packet_bins, batched_bins;
  ff::BinnedClassifier per_packet(
      {fp::FlowDefinition::kFiveTuple, 0}, bin_ns,
      [&](std::size_t bin, std::vector<ff::FlowCounter> flows) {
        for (const auto& f : flows) per_packet_bins[bin] += f.packets;
      });
  auto batched = ff::BinnedClassifier::with_table_view(
      {fp::FlowDefinition::kFiveTuple, 0}, bin_ns,
      [&](std::size_t bin, const ff::FlowTable& table) {
        table.for_each_all(
            [&](const ff::FlowCounter& f) { batched_bins[bin] += f.packets; });
      });
  for (const auto& pkt : workload) per_packet.add(pkt);
  per_packet.finish();
  const std::span<const fp::PacketRecord> all(workload);
  for (std::size_t start = 0; start < all.size(); start += 777) {
    batched.add_batch(all.subspan(start, std::min<std::size_t>(777, all.size() - start)));
  }
  batched.finish();
  EXPECT_EQ(per_packet_bins, batched_bins);
}

// ---------------------------------------------------------------------------
// Distribution of the skip-based sampler
// ---------------------------------------------------------------------------

TEST(SkipSamplerDistribution, GeometricSkipMatchesBernoulliChiSquared) {
  // Counts of selected packets per block of m must follow Bin(m, p) if the
  // skip process really is i.i.d. Bernoulli sampling. Chi-squared GOF over
  // the block-count histogram; the 0.001 critical values leave a seeded
  // deterministic test with ample margin.
  const double p = 0.05;
  const std::size_t block = 40;
  const std::size_t blocks = 20000;
  const auto workload = make_workload(block * blocks, 17, 1);

  fs::BernoulliSampler sampler(p, /*seed=*/1234);
  std::vector<std::uint32_t> indices;
  sampler.select(workload, indices);

  std::vector<std::uint64_t> histogram(block + 1, 0);
  {
    std::vector<std::uint32_t> per_block(blocks, 0);
    for (const std::uint32_t idx : indices) ++per_block[idx / block];
    for (const std::uint32_t c : per_block) ++histogram[c];
  }

  // Pool the tail so every expected cell count is >= 5.
  double chi2 = 0.0;
  int cells = 0;
  double pooled_observed = 0.0, pooled_expected = 0.0;
  for (std::size_t k = 0; k <= block; ++k) {
    const double expected =
        static_cast<double>(blocks) *
        flowrank::numeric::binomial_pmf(static_cast<std::int64_t>(k),
                                        static_cast<std::int64_t>(block), p);
    const auto observed = static_cast<double>(histogram[k]);
    if (expected < 5.0) {
      pooled_observed += observed;
      pooled_expected += expected;
      continue;
    }
    chi2 += (observed - expected) * (observed - expected) / expected;
    ++cells;
  }
  if (pooled_expected > 0.0) {
    chi2 += (pooled_observed - pooled_expected) * (pooled_observed - pooled_expected) /
            pooled_expected;
    ++cells;
  }
  // Critical value of chi^2 at alpha = 0.001 for the df in play (<= 10
  // cells here): chi2_{0.999, 9} = 27.9. Anything wildly above means the
  // skip recurrence does not reproduce Bernoulli sampling.
  EXPECT_LT(chi2, 30.0) << "cells=" << cells;
}

// ---------------------------------------------------------------------------
// Memoized binomial sweeps
// ---------------------------------------------------------------------------

TEST(BinomialSweepCache, SurvivesCacheResetMidExpression) {
  // Regression: misranking_exact holds two sweeps from consecutive
  // shared() calls; the second call may reset the bounded memo, which
  // must not invalidate the first (shared ownership). Fill the cache so
  // the (small, p) lookup hits and the (big, p) lookup forces the reset.
  const double p = 0.01;
  for (int i = 0; i < 255; ++i) {
    (void)flowrank::numeric::BinomialSweep::shared(1000 + i, p);
  }
  (void)flowrank::numeric::BinomialSweep::shared(100, p);  // cache now full
  const double v = flowrank::core::misranking_exact(100, 120, p);
  EXPECT_GT(v, 0.0);
  EXPECT_LE(v, 1.0);
  // And the value matches a fresh evaluation (cache state independent).
  EXPECT_DOUBLE_EQ(v, flowrank::core::misranking_exact(100, 120, p));
}

// ---------------------------------------------------------------------------
// top_k selection
// ---------------------------------------------------------------------------

TEST(TopK, NthElementPathBreaksTiesByKeyDeterministically) {
  // 50 flows tied at 100 packets, 10 above, 40 below; t = 30 cuts through
  // the tie group. The returned tie segment must be the smallest keys in
  // ascending order no matter the input order.
  std::vector<ff::FlowCounter> flows;
  auto add_flow = [&flows](std::uint64_t key_lo, std::uint64_t packets) {
    ff::FlowCounter f;
    f.key = fp::FlowKey{1, key_lo};
    f.packets = packets;
    flows.push_back(f);
  };
  for (std::uint64_t i = 0; i < 10; ++i) add_flow(1000 + i, 500 + i);
  for (std::uint64_t i = 0; i < 50; ++i) add_flow(100 + i, 100);
  for (std::uint64_t i = 0; i < 40; ++i) add_flow(i, 10 + i);

  EXPECT_TRUE(ff::top_k(flows, 0).empty());

  auto engine = flowrank::util::make_engine(8);
  for (int shuffle = 0; shuffle < 5; ++shuffle) {
    std::shuffle(flows.begin(), flows.end(), engine);
    const auto top = ff::top_k(flows, 30);
    ASSERT_EQ(top.size(), 30u);
    // Head: the 10 large flows by size descending.
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(top[i].packets, 509u - i);
    }
    // Tail: exactly the 20 smallest keys of the tie group, ascending.
    for (std::size_t i = 0; i < 20; ++i) {
      EXPECT_EQ(top[10 + i].packets, 100u);
      EXPECT_EQ(top[10 + i].key.lo, 100 + i);
    }
  }
}

TEST(TopK, HeapSelectionOverTableMatchesVectorPath) {
  ff::FlowTable table({fp::FlowDefinition::kFiveTuple, 0});
  for (const auto& pkt : make_workload(40000, 1511, 6)) table.add(pkt);
  for (std::size_t t : {1ul, 10ul, 100ul, 5000ul}) {
    const auto from_vector = ff::top_k(table.all(), t);
    const auto from_table = ff::top_k(table, t);
    ASSERT_EQ(from_vector.size(), from_table.size()) << t;
    for (std::size_t i = 0; i < from_vector.size(); ++i) {
      EXPECT_EQ(from_vector[i].key, from_table[i].key) << t << " " << i;
      EXPECT_EQ(from_vector[i].packets, from_table[i].packets);
    }
  }
}
