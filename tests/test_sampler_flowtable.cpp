// Tests for the packet sampler, flow table and binning.
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "flowrank/flowtable/binned_classifier.hpp"
#include "flowrank/flowtable/flow_table.hpp"
#include "flowrank/sampler/packet_sampler.hpp"
#include "flowrank/numeric/stats.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/trace/packet_stream.hpp"

namespace fp = flowrank::packet;
namespace fs = flowrank::sampler;
namespace ff = flowrank::flowtable;

namespace {

fp::PacketRecord make_packet(std::int64_t ts_ns, std::uint32_t src = 1,
                             fp::Protocol proto = fp::Protocol::kTcp,
                             std::uint32_t seq = 0) {
  fp::PacketRecord pkt;
  pkt.timestamp_ns = ts_ns;
  pkt.tuple = fp::FiveTuple{src, 2, 10, 80, proto};
  pkt.size_bytes = 500;
  pkt.tcp_seq = seq;
  return pkt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Samplers
// ---------------------------------------------------------------------------

class SamplerRateCase : public ::testing::TestWithParam<double> {};

TEST_P(SamplerRateCase, BernoulliHitsExpectedRate) {
  const double p = GetParam();
  fs::BernoulliSampler sampler(p, /*seed=*/1);
  const int trials = 200000;
  int hits = 0;
  for (int i = 0; i < trials; ++i) {
    if (sampler.offer(make_packet(i))) ++hits;
  }
  const double sigma = std::sqrt(p * (1 - p) * trials);
  EXPECT_NEAR(hits, p * trials, 5.0 * sigma + 1.0) << p;
  EXPECT_DOUBLE_EQ(sampler.rate(), p);
}

INSTANTIATE_TEST_SUITE_P(Rates, SamplerRateCase,
                         ::testing::Values(0.001, 0.01, 0.1, 0.5, 0.9));

TEST(Samplers, ThinCountMatchesBinomialMoments) {
  auto engine = flowrank::util::make_engine(5);
  const std::uint64_t n = 1000;
  const double p = 0.1;
  flowrank::numeric::RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(static_cast<double>(fs::thin_count(n, p, engine)));
  }
  EXPECT_NEAR(stats.mean(), n * p, 1.0);
  EXPECT_NEAR(stats.variance(), n * p * (1 - p), 5.0);
  EXPECT_EQ(fs::thin_count(0, 0.5, engine), 0u);
  EXPECT_EQ(fs::thin_count(100, 0.0, engine), 0u);
  EXPECT_EQ(fs::thin_count(100, 1.0, engine), 100u);
}

TEST(Samplers, InvalidArguments) {
  EXPECT_THROW(fs::BernoulliSampler(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(fs::BernoulliSampler(1.1, 1), std::invalid_argument);
  auto engine = flowrank::util::make_engine(1);
  EXPECT_THROW((void)fs::thin_count(10, -0.5, engine), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Flow table
// ---------------------------------------------------------------------------

TEST(FlowTable, AccumulatesPerFlowCounters) {
  ff::FlowTable table({fp::FlowDefinition::kFiveTuple, 0});
  for (int i = 0; i < 5; ++i) table.add(make_packet(i * 1000, /*src=*/1));
  for (int i = 0; i < 3; ++i) table.add(make_packet(i * 1000 + 10, /*src=*/2));
  EXPECT_EQ(table.size(), 2u);
  const auto flows = table.active();
  std::uint64_t total = 0;
  for (const auto& f : flows) {
    total += f.packets;
    EXPECT_EQ(f.bytes, f.packets * 500);
    EXPECT_LE(f.first_ns, f.last_ns);
  }
  EXPECT_EQ(total, 8u);
}

TEST(FlowTable, TracksTcpSequenceSpan) {
  ff::FlowTable table({fp::FlowDefinition::kFiveTuple, 0});
  table.add(make_packet(0, 1, fp::Protocol::kTcp, 1500));
  table.add(make_packet(10, 1, fp::Protocol::kTcp, 500));
  table.add(make_packet(20, 1, fp::Protocol::kTcp, 9000));
  const auto flows = table.active();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_TRUE(flows[0].has_tcp_seq);
  EXPECT_EQ(flows[0].min_tcp_seq, 500u);
  EXPECT_EQ(flows[0].max_tcp_seq, 9000u);
}

TEST(FlowTable, UdpFlowsHaveNoSeq) {
  ff::FlowTable table({fp::FlowDefinition::kFiveTuple, 0});
  table.add(make_packet(0, 1, fp::Protocol::kUdp));
  EXPECT_FALSE(table.active()[0].has_tcp_seq);
}

TEST(FlowTable, IdleTimeoutSplitsSubflows) {
  ff::FlowTable::Options opts{fp::FlowDefinition::kFiveTuple,
                              /*idle_timeout_ns=*/1000000};
  ff::FlowTable table(opts);
  table.add(make_packet(0));
  table.add(make_packet(500000));            // same subflow
  table.add(make_packet(500000 + 2000000));  // gap > timeout: new subflow
  EXPECT_EQ(table.completed().size(), 1u);
  EXPECT_EQ(table.completed()[0].packets, 2u);
  EXPECT_EQ(table.size(), 1u);
  const auto all = table.all();
  EXPECT_EQ(all.size(), 2u);
}

TEST(FlowTable, AggregatesByPrefix24) {
  ff::FlowTable table({fp::FlowDefinition::kDstPrefix24, 0});
  auto pkt_a = make_packet(0, 1);
  pkt_a.tuple.dst_ip = 0x0A0B0C01;
  auto pkt_b = make_packet(1, 2);
  pkt_b.tuple.dst_ip = 0x0A0B0C55;  // same /24
  table.add(pkt_a);
  table.add(pkt_b);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.active()[0].packets, 2u);
}

TEST(FlowTable, ClearResetsEverything) {
  ff::FlowTable table({fp::FlowDefinition::kFiveTuple, 100});
  table.add(make_packet(0));
  table.add(make_packet(1000));  // split
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.completed().empty());
}

TEST(TopK, OrdersBySizeWithDeterministicTies) {
  std::vector<ff::FlowCounter> flows(5);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].key = fp::FlowKey{0, i};
    flows[i].packets = i == 2 ? 10 : 5;
  }
  const auto top = ff::top_k(flows, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].packets, 10u);
  EXPECT_EQ(top[1].key.lo, 0u);  // tie broken by key
  EXPECT_EQ(top[2].key.lo, 1u);
  // t larger than input returns all, sorted.
  EXPECT_EQ(ff::top_k(flows, 50).size(), flows.size());
}

TEST(BinnedClassifier, FlushesPerBinAndTruncatesFlows) {
  const std::int64_t bin_ns = 1000000000;  // 1 s
  std::map<std::size_t, std::uint64_t> bin_packets;
  ff::BinnedClassifier classifier(
      {fp::FlowDefinition::kFiveTuple, 0}, bin_ns,
      [&](std::size_t bin, std::vector<ff::FlowCounter> flows) {
        for (const auto& f : flows) bin_packets[bin] += f.packets;
      });
  // One flow spanning three bins: truncation splits its count across bins.
  for (int i = 0; i < 30; ++i) classifier.add(make_packet(i * 100000000LL));
  classifier.finish();
  EXPECT_EQ(bin_packets.size(), 3u);
  EXPECT_EQ(bin_packets[0], 10u);
  EXPECT_EQ(bin_packets[1], 10u);
  EXPECT_EQ(bin_packets[2], 10u);
}

TEST(BinnedClassifier, EmitsEmptyBinsBetweenActivity) {
  std::vector<std::size_t> flushed;
  ff::BinnedClassifier classifier(
      {fp::FlowDefinition::kFiveTuple, 0}, 1000,
      [&](std::size_t bin, std::vector<ff::FlowCounter>) { flushed.push_back(bin); });
  classifier.add(make_packet(100));
  classifier.add(make_packet(5500));  // skips bins 1-4
  classifier.finish();
  ASSERT_EQ(flushed.size(), 6u);
  EXPECT_EQ(flushed.front(), 0u);
  EXPECT_EQ(flushed.back(), 5u);
}

TEST(BinnedClassifier, InvalidConstruction) {
  EXPECT_THROW(ff::BinnedClassifier({}, 0, [](std::size_t, auto) {}),
               std::invalid_argument);
  EXPECT_THROW(ff::BinnedClassifier({}, 100, nullptr), std::invalid_argument);
}
