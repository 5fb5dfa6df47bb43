// Tests for flow keys, trace generation, packet expansion, bin counts and
// trace I/O.
#include <cmath>
#include <set>
#include <sstream>
#include <unordered_set>

#include <gtest/gtest.h>

#include "flowrank/numeric/stats.hpp"
#include "flowrank/packet/flow_key.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/flow_churn.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/trace/trace_io.hpp"

namespace fp = flowrank::packet;
namespace ft = flowrank::trace;

namespace {

ft::FlowTraceConfig small_sprint(double duration_s = 20.0, std::uint64_t seed = 42) {
  auto cfg = ft::FlowTraceConfig::sprint_5tuple(1.5, seed);
  cfg.duration_s = duration_s;
  cfg.flow_rate_per_s = 200.0;  // scaled down for unit tests
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Flow keys
// ---------------------------------------------------------------------------

TEST(FlowKey, FiveTupleDistinguishesAllFields) {
  fp::FiveTuple base{0x0A000001, 0x0A000002, 1234, 80, fp::Protocol::kTcp};
  const auto key = make_flow_key(base, fp::FlowDefinition::kFiveTuple);
  for (int field = 0; field < 5; ++field) {
    fp::FiveTuple other = base;
    switch (field) {
      case 0: other.src_ip ^= 1; break;
      case 1: other.dst_ip ^= 1; break;
      case 2: other.src_port ^= 1; break;
      case 3: other.dst_port ^= 1; break;
      case 4: other.protocol = fp::Protocol::kUdp; break;
    }
    EXPECT_NE(make_flow_key(other, fp::FlowDefinition::kFiveTuple), key) << field;
  }
}

TEST(FlowKey, Prefix24AggregatesLastOctet) {
  fp::FiveTuple a{1, 0x0A0B0C01, 10, 20, fp::Protocol::kTcp};
  fp::FiveTuple b{2, 0x0A0B0CFF, 30, 40, fp::Protocol::kUdp};
  fp::FiveTuple c{2, 0x0A0B0D01, 30, 40, fp::Protocol::kUdp};
  EXPECT_EQ(make_flow_key(a, fp::FlowDefinition::kDstPrefix24),
            make_flow_key(b, fp::FlowDefinition::kDstPrefix24));
  EXPECT_NE(make_flow_key(a, fp::FlowDefinition::kDstPrefix24),
            make_flow_key(c, fp::FlowDefinition::kDstPrefix24));
}

TEST(FlowKey, HashSpreadsKeys) {
  fp::FlowKeyHash hash;
  std::unordered_set<std::size_t> seen;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    fp::FiveTuple tuple{i, i * 7 + 1, static_cast<std::uint16_t>(i),
                        static_cast<std::uint16_t>(i >> 2), fp::Protocol::kTcp};
    seen.insert(hash(make_flow_key(tuple, fp::FlowDefinition::kFiveTuple)));
  }
  EXPECT_GT(seen.size(), 9990u);  // essentially collision-free spread
}

TEST(FlowKey, Formatting) {
  EXPECT_EQ(fp::format_ipv4(0x7F000001), "127.0.0.1");
  fp::FiveTuple tuple{0x0A000001, 0xC0A80102, 5555, 80, fp::Protocol::kTcp};
  EXPECT_EQ(fp::format_five_tuple(tuple), "tcp 10.0.0.1:5555 -> 192.168.1.2:80");
  EXPECT_EQ(fp::to_string(fp::FlowDefinition::kFiveTuple), "5-tuple");
  EXPECT_EQ(fp::to_string(fp::FlowDefinition::kDstPrefix24), "/24 dst prefix");
}

// ---------------------------------------------------------------------------
// Flow trace generation
// ---------------------------------------------------------------------------

TEST(FlowTraceGenerator, RespectsArrivalRate) {
  auto cfg = small_sprint(/*duration_s=*/100.0);
  const auto trace = ft::generate_flow_trace(cfg);
  const double expected = cfg.duration_s * cfg.flow_rate_per_s;
  EXPECT_NEAR(static_cast<double>(trace.flows.size()), expected,
              5.0 * std::sqrt(expected));  // Poisson band
}

TEST(FlowTraceGenerator, MeanFlowSizeMatchesDistribution) {
  auto cfg = small_sprint(/*duration_s=*/200.0);
  const auto trace = ft::generate_flow_trace(cfg);
  flowrank::numeric::RunningStats sizes;
  for (const auto& f : trace.flows) sizes.add(static_cast<double>(f.packets));
  EXPECT_NEAR(sizes.mean(), 9.6, 2.0);  // heavy tail: generous band
}

TEST(FlowTraceGenerator, FlowsSortedAndInsideTrace) {
  const auto trace = ft::generate_flow_trace(small_sprint());
  double prev = 0.0;
  for (const auto& f : trace.flows) {
    EXPECT_GE(f.start_s, prev);
    prev = f.start_s;
    EXPECT_GE(f.start_s, 0.0);
    EXPECT_LE(f.end_s(), trace.config.duration_s + 1e-9);
    EXPECT_GE(f.packets, 1u);
    EXPECT_EQ(f.bytes, f.packets * trace.config.packet_size_bytes);
  }
}

TEST(FlowTraceGenerator, DeterministicInSeed) {
  const auto a = ft::generate_flow_trace(small_sprint(20.0, 7));
  const auto b = ft::generate_flow_trace(small_sprint(20.0, 7));
  const auto c = ft::generate_flow_trace(small_sprint(20.0, 8));
  ASSERT_EQ(a.flows.size(), b.flows.size());
  EXPECT_EQ(a.flows[0].tuple.src_ip, b.flows[0].tuple.src_ip);
  EXPECT_EQ(a.flows[0].packets, b.flows[0].packets);
  EXPECT_NE(a.flows.size(), c.flows.size());
}

TEST(FlowTraceGenerator, PresetsMatchPaperParameters) {
  const auto tuple5 = ft::FlowTraceConfig::sprint_5tuple();
  EXPECT_DOUBLE_EQ(tuple5.flow_rate_per_s, 2360.0);
  EXPECT_NEAR(tuple5.size_dist->mean(), 9.6, 1e-9);
  const auto prefix = ft::FlowTraceConfig::sprint_prefix24();
  EXPECT_DOUBLE_EQ(prefix.flow_rate_per_s, 350.0);
  EXPECT_NEAR(prefix.size_dist->mean(), 33.2, 1e-9);
  const auto abilene = ft::FlowTraceConfig::abilene();
  EXPECT_GT(abilene.flow_rate_per_s, tuple5.flow_rate_per_s);
  // Short tail: P{S > 100 mean} is zero for the bounded distribution.
  EXPECT_DOUBLE_EQ(abilene.size_dist->ccdf(abilene.size_dist->mean() * 400), 0.0);
}

TEST(FlowTraceGenerator, InvalidConfigThrows) {
  auto cfg = small_sprint();
  cfg.size_dist = nullptr;
  EXPECT_THROW((void)ft::generate_flow_trace(cfg), std::invalid_argument);
  cfg = small_sprint();
  cfg.duration_s = 0.0;
  EXPECT_THROW((void)ft::generate_flow_trace(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Packet expansion
// ---------------------------------------------------------------------------

TEST(PacketStream, EmitsEveryPacketInTimeOrder) {
  const auto trace = ft::generate_flow_trace(small_sprint());
  ft::PacketStream stream(trace);
  std::int64_t prev = -1;
  std::uint64_t count = 0;
  while (auto pkt = stream.next()) {
    EXPECT_GE(pkt->timestamp_ns, prev);
    prev = pkt->timestamp_ns;
    ++count;
  }
  EXPECT_EQ(count, trace.total_packets());
}

TEST(PacketStream, PacketsStayInsideFlowLifetimes) {
  const auto trace = ft::generate_flow_trace(small_sprint());
  const auto packets = ft::expand_trace(trace);
  // Group by 5-tuple and check spans.
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> spans;
  for (const auto& p : packets) {
    const auto key = (static_cast<std::uint64_t>(p.tuple.src_ip) << 32) | p.tuple.dst_ip;
    auto [it, fresh] = spans.try_emplace(key, p.timestamp_ns, p.timestamp_ns);
    if (!fresh) {
      it->second.first = std::min(it->second.first, p.timestamp_ns);
      it->second.second = std::max(it->second.second, p.timestamp_ns);
    }
  }
  for (const auto& f : trace.flows) {
    const auto key = (static_cast<std::uint64_t>(f.tuple.src_ip) << 32) | f.tuple.dst_ip;
    const auto it = spans.find(key);
    ASSERT_NE(it, spans.end());
    EXPECT_GE(it->second.first, static_cast<std::int64_t>(f.start_s * 1e9) - 1);
    EXPECT_LE(it->second.second,
              static_cast<std::int64_t>((f.end_s()) * 1e9) + 1);
  }
}

TEST(PacketStream, TcpFlowsCarryMonotoneSequenceNumbers) {
  auto cfg = small_sprint();
  cfg.tcp_fraction = 1.0;
  const auto trace = ft::generate_flow_trace(cfg);
  const auto packets = ft::expand_trace(trace);
  std::map<std::uint32_t, std::uint32_t> max_seq;  // src_ip -> max seq
  bool saw_nonzero = false;
  for (const auto& p : packets) {
    EXPECT_EQ(p.tcp_seq % trace.config.packet_size_bytes, 0u);
    if (p.tcp_seq > 0) saw_nonzero = true;
    auto [it, fresh] = max_seq.try_emplace(p.tuple.src_ip, p.tcp_seq);
    if (!fresh) it->second = std::max(it->second, p.tcp_seq);
  }
  EXPECT_TRUE(saw_nonzero);
}

TEST(PacketStream, DeterministicPlacement) {
  const auto trace = ft::generate_flow_trace(small_sprint());
  const auto a = ft::expand_trace(trace, /*seed=*/5);
  const auto b = ft::expand_trace(trace, /*seed=*/5);
  const auto c = ft::expand_trace(trace, /*seed=*/6);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp_ns, b[i].timestamp_ns);
    if (a[i].timestamp_ns != c[i].timestamp_ns) any_difference = true;
  }
  EXPECT_TRUE(any_difference);  // different placement seed shifts packets
  // The trace seed keys placement too.
  auto reseeded = trace;
  ++reseeded.config.seed;
  const auto d = ft::expand_trace(reseeded, /*seed=*/5);
  ASSERT_EQ(a.size(), d.size());
  std::size_t moved = 0;
  for (std::size_t i = 0; i < a.size(); ++i) moved += a[i].timestamp_ns != d[i].timestamp_ns;
  EXPECT_GT(moved, a.size() / 2);
}

// ---------------------------------------------------------------------------
// Bin counts (the fast path) vs packet expansion (ground truth)
// ---------------------------------------------------------------------------

TEST(BinCounts, TotalsMatchTraceExactly) {
  const auto trace = ft::generate_flow_trace(small_sprint());
  const auto counts =
      ft::bin_flow_counts(trace, 5.0, fp::FlowDefinition::kFiveTuple);
  std::uint64_t total = 0;
  for (const auto& bin : counts.bins) {
    for (const auto& f : bin) total += f.packets;
  }
  EXPECT_EQ(total, trace.total_packets());
}

TEST(BinCounts, MarginalsMatchPacketExpansionStatistically) {
  // The multinomial split must induce the same per-bin totals law as
  // uniform packet placement: compare per-bin packet totals.
  auto cfg = small_sprint(/*duration_s=*/30.0, /*seed=*/11);
  const auto trace = ft::generate_flow_trace(cfg);
  const double bin_s = 5.0;
  const auto counts = ft::bin_flow_counts(trace, bin_s, fp::FlowDefinition::kFiveTuple);

  std::vector<double> count_totals(counts.bins.size(), 0.0);
  for (std::size_t b = 0; b < counts.bins.size(); ++b) {
    for (const auto& f : counts.bins[b]) {
      count_totals[b] += static_cast<double>(f.packets);
    }
  }
  const auto packets = ft::expand_trace(trace);
  std::vector<double> packet_totals(counts.bins.size(), 0.0);
  for (const auto& p : packets) {
    const auto b = static_cast<std::size_t>(p.timestamp_ns / 1e9 / bin_s);
    if (b < packet_totals.size()) packet_totals[b] += 1.0;
  }
  for (std::size_t b = 0; b < counts.bins.size(); ++b) {
    // Same flows, same overlaps; only the multinomial draws differ. Bands
    // are a few sigma of a binomial with ~bin total trials.
    const double sigma = std::sqrt(std::max(16.0, packet_totals[b]));
    EXPECT_NEAR(count_totals[b], packet_totals[b], 6.0 * sigma) << "bin " << b;
  }
}

TEST(BinCounts, Prefix24MergesFlows) {
  auto cfg = small_sprint();
  const auto trace = ft::generate_flow_trace(cfg);
  const auto by_tuple =
      ft::bin_flow_counts(trace, 10.0, fp::FlowDefinition::kFiveTuple);
  const auto by_prefix =
      ft::bin_flow_counts(trace, 10.0, fp::FlowDefinition::kDstPrefix24);
  for (std::size_t b = 0; b < by_tuple.bins.size(); ++b) {
    EXPECT_LE(by_prefix.bins[b].size(), by_tuple.bins[b].size());
  }
}

TEST(BinCounts, RejectsBadBinWidth) {
  const auto trace = ft::generate_flow_trace(small_sprint());
  EXPECT_THROW((void)ft::bin_flow_counts(trace, 0.0, fp::FlowDefinition::kFiveTuple),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Trace I/O
// ---------------------------------------------------------------------------

TEST(TraceIo, BinaryRoundTrip) {
  const auto trace = ft::generate_flow_trace(small_sprint());
  std::stringstream buffer;
  ft::write_flow_records(buffer, trace.flows);
  const auto loaded = ft::read_flow_records(buffer);
  ASSERT_EQ(loaded.size(), trace.flows.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].packets, trace.flows[i].packets);
    EXPECT_EQ(loaded[i].tuple.src_ip, trace.flows[i].tuple.src_ip);
    EXPECT_EQ(loaded[i].tuple.protocol, trace.flows[i].tuple.protocol);
    EXPECT_DOUBLE_EQ(loaded[i].start_s, trace.flows[i].start_s);
    EXPECT_DOUBLE_EQ(loaded[i].duration_s, trace.flows[i].duration_s);
  }
}

TEST(TraceIo, RejectsCorruptInput) {
  std::stringstream bad("not a trace at all");
  EXPECT_THROW((void)ft::read_flow_records(bad), std::runtime_error);
  // Truncated payload.
  const auto trace = ft::generate_flow_trace(small_sprint(2.0));
  std::stringstream buffer;
  ft::write_flow_records(buffer, trace.flows);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW((void)ft::read_flow_records(truncated), std::runtime_error);
}

TEST(TraceIo, CsvExportHasHeaderAndRows) {
  const auto trace = ft::generate_flow_trace(small_sprint(2.0));
  std::stringstream csv;
  ft::export_flow_records_csv(csv, trace.flows);
  std::string line;
  std::getline(csv, line);
  EXPECT_EQ(line,
            "start_s,duration_s,packets,bytes,proto,src_ip,src_port,dst_ip,dst_port");
  std::size_t rows = 0;
  while (std::getline(csv, line)) ++rows;
  EXPECT_EQ(rows, trace.flows.size());
}

// ---------------------------------------------------------------------------
// Flow-churn trace source (pktgen-style bounded population + turnover)
// ---------------------------------------------------------------------------

namespace {

ft::FlowChurnConfig small_churn() {
  ft::FlowChurnConfig cfg;
  cfg.duration_s = 10.0;
  cfg.population = 100;
  cfg.churn_per_s = 50.0;
  cfg.flow_rate_per_s = 400.0;
  cfg.mean_packets = 8.0;
  cfg.mean_duration_s = 0.5;
  cfg.seed = 5;
  return cfg;
}

std::size_t distinct_tuples(const ft::FlowTrace& trace) {
  std::unordered_set<fp::FlowKey, fp::FlowKeyHash> seen;
  for (const auto& flow : trace.flows) {
    seen.insert(make_flow_key(flow.tuple, fp::FlowDefinition::kFiveTuple));
  }
  return seen.size();
}

}  // namespace

TEST(FlowChurnTrace, DeterministicInSeedAndSortedInsideTrace) {
  const auto cfg = small_churn();
  const auto a = ft::FlowChurnTraceSource(cfg).flows();
  const auto b = ft::FlowChurnTraceSource(cfg).flows();
  ASSERT_FALSE(a.flows.empty());
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].tuple.src_ip, b.flows[i].tuple.src_ip);
    EXPECT_EQ(a.flows[i].start_s, b.flows[i].start_s);
    EXPECT_EQ(a.flows[i].packets, b.flows[i].packets);
    EXPECT_EQ(a.flows[i].bytes, b.flows[i].bytes);
    if (i > 0) EXPECT_LE(a.flows[i - 1].start_s, a.flows[i].start_s);
    EXPECT_GE(a.flows[i].start_s, 0.0);
    EXPECT_LE(a.flows[i].end_s(), cfg.duration_s + 1e-9);
    EXPECT_GE(a.flows[i].packets, 1u);
  }
  // A different seed is a different trace.
  auto other = cfg;
  other.seed = 6;
  EXPECT_NE(ft::FlowChurnTraceSource(other).flows().flows.size() * 31 +
                distinct_tuples(ft::FlowChurnTraceSource(other).flows()),
            a.flows.size() * 31 + distinct_tuples(a));
}

TEST(FlowChurnTrace, PopulationBoundsTupleReuse) {
  // Zero churn: every arrival reuses one of `population` slots, so the
  // trace revisits the same tuples over and over (the table hit-rate
  // stress the generator exists for).
  auto cfg = small_churn();
  cfg.churn_per_s = 0.0;
  const auto steady = ft::FlowChurnTraceSource(cfg).flows();
  EXPECT_GT(steady.flows.size(), cfg.population);  // arrivals outnumber slots
  EXPECT_LE(distinct_tuples(steady), cfg.population);

  // With churn, replaced slots introduce fresh tuples beyond the
  // population bound (deterministic for the fixed seed).
  const auto churning = ft::FlowChurnTraceSource(small_churn()).flows();
  EXPECT_GT(distinct_tuples(churning), small_churn().population);
}

TEST(FlowChurnTrace, InvalidConfigThrows) {
  const auto expect_throw = [](auto mutate) {
    auto cfg = small_churn();
    mutate(cfg);
    EXPECT_THROW(ft::FlowChurnTraceSource{cfg}, std::invalid_argument);
  };
  expect_throw([](ft::FlowChurnConfig& c) { c.duration_s = 0.0; });
  expect_throw([](ft::FlowChurnConfig& c) { c.population = 0; });
  expect_throw([](ft::FlowChurnConfig& c) { c.churn_per_s = -1.0; });
  expect_throw([](ft::FlowChurnConfig& c) { c.flow_rate_per_s = 0.0; });
  expect_throw([](ft::FlowChurnConfig& c) { c.mean_packets = 0.5; });
  expect_throw([](ft::FlowChurnConfig& c) { c.mean_duration_s = 0.0; });
  expect_throw([](ft::FlowChurnConfig& c) { c.tcp_fraction = 1.5; });
}
