// Tests for the trace expander: the counter-based generator's known
// answers, the calendar-queue PacketStream against a brute-force placement
// of every packet by the stream-v2 definition plus one global sort, the
// placement's statistics (KS tests against the uniform order statistics),
// input validation, and digests of the stream.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/numeric/incbeta.hpp"
#include "flowrank/packet/records.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/flow_churn.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/util/error.hpp"
#include "flowrank/util/rng.hpp"

namespace fp = flowrank::packet;
namespace ft = flowrank::trace;
namespace fu = flowrank::util;

namespace {

// ---------------------------------------------------------------------------
// Oracle: every packet placed straight from the stream-v2 definition in
// packet_stream.hpp, then one global sort by (timestamp, flow, packet).
// ---------------------------------------------------------------------------

constexpr double kNsPerSec = 1e9;

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * kNsPerSec));
}

/// The timestamps of one flow's packets, in packet-index order.
std::vector<std::int64_t> oracle_timestamps(const ft::FlowTrace& trace, std::uint64_t seed,
                                            std::uint32_t flow_index) {
  const fp::FlowRecord& flow = trace.flows[flow_index];
  const std::int64_t start_ns = to_ns(flow.start_s);
  const std::size_t n = flow.packets;
  std::vector<std::int64_t> ts(n, start_ns);
  if (n == 1 || flow.duration_s <= 0.0) return ts;
  const std::uint64_t key = fu::mix_streams(trace.config.seed, seed, flow_index);
  std::vector<double> uniforms(n + 1);
  for (std::size_t j = 0; j <= n; ++j) {
    uniforms[j] = fu::unit_open_from_bits(fu::counter_word(key, j));
  }
  double product = 1.0;
  int rescales = 0;
  for (const double u : uniforms) {
    product *= u;
    if (product < std::ldexp(1.0, -512)) {
      product = std::ldexp(product, 512);
      ++rescales;
    }
  }
  const double total = rescales * (512.0 * std::log(2.0)) - std::log(product);
  const double duration_ns = flow.duration_s * kNsPerSec;
  const double scale = duration_ns / total;
  double prefix = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    prefix += -std::log(uniforms[k]);
    const double offset = std::min(prefix * scale, duration_ns);
    ts[k] = start_ns + static_cast<std::int64_t>(std::floor(offset + 0.5));
  }
  return ts;
}

std::vector<fp::PacketRecord> oracle_expand(const ft::FlowTrace& trace, std::uint64_t seed) {
  std::vector<std::tuple<std::int64_t, std::uint32_t, std::uint32_t>> placed;
  for (std::uint32_t fi = 0; fi < trace.flows.size(); ++fi) {
    const auto ts = oracle_timestamps(trace, seed, fi);
    for (std::uint32_t k = 0; k < ts.size(); ++k) placed.emplace_back(ts[k], fi, k);
  }
  std::sort(placed.begin(), placed.end());
  std::vector<fp::PacketRecord> packets;
  packets.reserve(placed.size());
  for (const auto& [ts, fi, k] : placed) {
    const fp::FlowRecord& flow = trace.flows[fi];
    fp::PacketRecord pkt;
    pkt.timestamp_ns = ts;
    pkt.tuple = flow.tuple;
    pkt.size_bytes = trace.config.packet_size_bytes;
    if (flow.tuple.protocol == fp::Protocol::kTcp) pkt.tcp_seq = k * trace.config.packet_size_bytes;
    packets.push_back(pkt);
  }
  return packets;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Pulls the whole stream through next_batch(·, batch), checking that every
/// batch but the last is full and that emitted() keeps count.
std::vector<fp::PacketRecord> batch_expand(const ft::FlowTrace& trace, std::uint64_t seed,
                                           std::size_t batch) {
  ft::PacketStream stream(trace, seed);
  std::vector<fp::PacketRecord> packets, chunk;
  std::size_t got = 0;
  while ((got = stream.next_batch(chunk, batch)) > 0) {
    EXPECT_EQ(got, chunk.size());
    EXPECT_LE(got, batch);
    packets.insert(packets.end(), chunk.begin(), chunk.end());
    EXPECT_EQ(stream.emitted(), packets.size());
    if (got < batch) {
      EXPECT_EQ(stream.next_batch(chunk, batch), 0u);
    }
  }
  EXPECT_TRUE(chunk.empty());
  EXPECT_FALSE(stream.next().has_value());
  return packets;
}

/// Interleaves next() with next_batch() of varying sizes.
std::vector<fp::PacketRecord> mixed_expand(const ft::FlowTrace& trace, std::uint64_t seed) {
  ft::PacketStream stream(trace, seed);
  std::vector<fp::PacketRecord> packets, chunk;
  constexpr std::size_t kPattern[] = {0, 3, 1, 0, 0, 64, 2, 4096, 0, 7};
  for (std::size_t step = 0;; ++step) {
    const std::size_t batch = kPattern[step % std::size(kPattern)];
    if (batch == 0) {
      const auto pkt = stream.next();
      if (!pkt) break;
      packets.push_back(*pkt);
    } else if (stream.next_batch(chunk, batch) > 0) {
      packets.insert(packets.end(), chunk.begin(), chunk.end());
    } else {
      break;
    }
  }
  EXPECT_EQ(stream.emitted(), packets.size());
  return packets;
}

void expect_same_packets(const std::vector<fp::PacketRecord>& got,
                         const std::vector<fp::PacketRecord>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = want[i];
    if (a.timestamp_ns != b.timestamp_ns || !(a.tuple == b.tuple) ||
        a.size_bytes != b.size_bytes || a.tcp_seq != b.tcp_seq) {
      ADD_FAILURE() << label << ": packet " << i << " differs: ts " << a.timestamp_ns
                    << " vs " << b.timestamp_ns << ", src " << a.tuple.src_ip << " vs "
                    << b.tuple.src_ip << ", seq " << a.tcp_seq << " vs " << b.tcp_seq;
      return;
    }
  }
}

struct FlowSpec {
  double start_s;
  double duration_s;
  std::uint64_t packets;
  fp::Protocol protocol = fp::Protocol::kTcp;
};

ft::FlowTrace make_trace(const std::vector<FlowSpec>& specs, std::uint64_t seed = 11) {
  ft::FlowTrace trace;
  trace.config = ft::FlowTraceConfig::sprint_5tuple(1.5, seed);
  double end = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    fp::FlowRecord flow;
    flow.tuple.src_ip = static_cast<std::uint32_t>(i + 1);
    flow.tuple.dst_ip = 0x0A000001;
    flow.tuple.src_port = static_cast<std::uint16_t>(1000 + i);
    flow.tuple.dst_port = 80;
    flow.tuple.protocol = specs[i].protocol;
    flow.start_s = specs[i].start_s;
    flow.duration_s = specs[i].duration_s;
    flow.packets = specs[i].packets;
    flow.bytes = flow.packets * trace.config.packet_size_bytes;
    trace.flows.push_back(flow);
    end = std::max(end, flow.end_s());
  }
  trace.config.duration_s = end;
  return trace;
}

ft::FlowTrace generated(ft::FlowTraceConfig cfg, double duration_s, double flow_rate_per_s) {
  cfg.duration_s = duration_s;
  cfg.flow_rate_per_s = flow_rate_per_s;
  return ft::generate_flow_trace(cfg);
}

/// Every differential family, at unit-test scale.
std::vector<std::pair<std::string, ft::FlowTrace>> trace_families() {
  std::vector<std::pair<std::string, ft::FlowTrace>> families;
  families.emplace_back("sprint_5tuple",
                        generated(ft::FlowTraceConfig::sprint_5tuple(1.5, 7), 20.0, 300.0));
  families.emplace_back("sprint_prefix24",
                        generated(ft::FlowTraceConfig::sprint_prefix24(1.5, 8), 20.0, 100.0));
  families.emplace_back("abilene", generated(ft::FlowTraceConfig::abilene(9), 3.0, 1500.0));
  {
    ft::FlowChurnConfig churn;
    churn.duration_s = 10.0;
    churn.population = 200;
    churn.churn_per_s = 20.0;
    churn.flow_rate_per_s = 300.0;
    churn.seed = 4;
    families.emplace_back("churn", ft::FlowChurnTraceSource(churn).flows());
  }
  {
    auto cfg = ft::FlowTraceConfig::sprint_5tuple(1.5, 12);
    cfg.on_off.enabled = true;
    families.emplace_back("on_off", generated(cfg, 30.0, 200.0));
  }
  // Single-packet flows and zero-duration multi-packet flows (all packets
  // at the start instant), between ordinary ones.
  families.emplace_back(
      "point_flows",
      make_trace({{0.0, 0.0, 1}, {0.0, 2.0, 5}, {0.1, 0.0, 4}, {0.1, 0.0, 1, fp::Protocol::kUdp},
                  {0.3, 1.5, 9}, {0.3, 0.0, 3, fp::Protocol::kUdp}, {0.7, 0.0, 1},
                  {0.7, 0.4, 1}, {1.2, 0.0, 6}, {2.5, 0.0, 2}}));
  // Equal start times: ties between flows break by flow index.
  {
    std::vector<FlowSpec> specs;
    for (int group = 0; group < 4; ++group) {
      for (int i = 0; i < 25; ++i) {
        specs.push_back({0.5 * group, i % 3 == 0 ? 0.0 : 0.01 * (i % 5 + 1),
                         static_cast<std::uint64_t>(1 + i % 7),
                         i % 2 == 0 ? fp::Protocol::kTcp : fp::Protocol::kUdp});
      }
    }
    families.emplace_back("equal_starts", make_trace(specs));
  }
  // Crowded buckets: hundreds of packets per ~1 ms calendar bucket, so
  // the bucket sort takes its radix path, including a zero-duration flow
  // whose 300 packets share one timestamp.
  {
    std::vector<FlowSpec> specs;
    for (int i = 0; i < 400; ++i) {
      specs.push_back({1.0e-3 * i / 400.0, i % 4 == 0 ? 0.0 : 2.0e-3, 3,
                       i % 3 == 0 ? fp::Protocol::kUdp : fp::Protocol::kTcp});
      if (i == 150) specs.push_back({1.0e-3 * i / 400.0, 0.0, 300});
    }
    families.emplace_back("crowded", make_trace(specs));
  }
  // A 10^6 s gap with nothing live, and live flows whose packets lie
  // ~10^5 s apart: the calendar must jump, not step ~10^9 empty buckets.
  families.emplace_back(
      "sparse", make_trace({{0.0, 1.0, 20}, {0.2, 2.0e6, 12}, {0.5, 0.5, 3},
                            {1.0e6, 3.0e5, 6}, {1.0e6 + 1.0, 1.0, 8}, {3.0e6, 0.0, 2}}));
  // Negative start times: bucket indices use floor division.
  families.emplace_back(
      "negative_starts",
      make_trace({{-3.0, 1.0, 7}, {-2.0, 4.0, 11}, {-1.0e-3, 2.0e-3, 5}, {-1.0e-9, 0.0, 2},
                  {0.0, 0.5, 4}, {1.5, 1.0, 3}}));
  return families;
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t stream_digest(const ft::FlowTrace& trace, std::uint64_t seed) {
  std::uint64_t h = kFnvOffset;
  ft::PacketStream stream(trace, seed);
  std::vector<fp::PacketRecord> batch;
  while (stream.next_batch(batch, 4096) > 0) {
    for (const auto& p : batch) {
      h = fnv1a(h, static_cast<std::uint64_t>(p.timestamp_ns), 8);
      h = fnv1a(h, p.tuple.src_ip, 4);
      h = fnv1a(h, p.tuple.dst_ip, 4);
      h = fnv1a(h, p.tuple.src_port, 2);
      h = fnv1a(h, p.tuple.dst_port, 2);
      h = fnv1a(h, static_cast<std::uint64_t>(p.tuple.protocol), 1);
      h = fnv1a(h, p.size_bytes, 4);
      h = fnv1a(h, p.tcp_seq, 4);
    }
  }
  return h;
}

std::uint64_t bin_digest(const ft::FlowTrace& trace, fp::FlowDefinition def,
                         std::uint64_t seed) {
  std::uint64_t h = kFnvOffset;
  const auto counts = ft::bin_flow_counts(trace, 1.0, def, seed);
  for (std::size_t b = 0; b < counts.bins.size(); ++b) {
    h = fnv1a(h, b, 8);
    for (const auto& flow : counts.bins[b]) {
      h = fnv1a(h, flow.key.hi, 8);
      h = fnv1a(h, flow.key.lo, 8);
      h = fnv1a(h, flow.packets, 8);
    }
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// The counter-based generator
// ---------------------------------------------------------------------------

TEST(CounterWord, KnownAnswers) {
  // SplitMix64's reference outputs from state 0 (Steele, Lea & Flood) and
  // from state 0x0123456789abcdef.
  const std::uint64_t from_zero[] = {0xe220a8397b1dcdafULL, 0x6e789e6aa1b965f4ULL,
                                     0x06c45d188009454fULL, 0xf88bb8a8724c81ecULL,
                                     0x1b39896a51a8749bULL};
  const std::uint64_t from_key[] = {0x157a3807a48faa9dULL, 0xd573529b34a1d093ULL,
                                    0x2f90b72e996dccbeULL, 0xa2d419334c4667ecULL,
                                    0x01404ce914938008ULL};
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(fu::counter_word(0, i), from_zero[i]) << i;
    EXPECT_EQ(fu::counter_word(0x0123456789abcdefULL, i), from_key[i]) << i;
  }
}

TEST(CounterWord, EqualsTheSplitMix64Sequence) {
  for (const std::uint64_t key : {0ULL, 1ULL, 0x9e3779b97f4a7c15ULL, ~0ULL}) {
    std::uint64_t state = key;
    fu::CounterEngine engine(key);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      const std::uint64_t word = fu::splitmix64(state);
      ASSERT_EQ(fu::counter_word(key, i), word) << key << " " << i;
      ASSERT_EQ(engine(), word) << key << " " << i;
    }
  }
}

TEST(CounterWord, UnitOpenFromBitsStaysInsideTheOpenClosedInterval) {
  EXPECT_EQ(fu::unit_open_from_bits(0), 0x1.0p-53);
  EXPECT_EQ(fu::unit_open_from_bits(~0ULL), 1.0);
  EXPECT_EQ(fu::unit_open_from_bits(std::uint64_t{1} << 63), 0.5 + 0x1.0p-53);
}

// ---------------------------------------------------------------------------
// PacketStream against the brute-force oracle
// ---------------------------------------------------------------------------

TEST(PacketStreamDifferential, MatchesBruteForcePlacementOnEveryFamily) {
  for (const auto& [name, trace] : trace_families()) {
    for (const std::uint64_t seed : {0u, 5u}) {
      const auto want = oracle_expand(trace, seed);
      ASSERT_EQ(want.size(), trace.total_packets()) << name;
      for (const std::size_t batch : {1u, 7u, 4096u}) {
        expect_same_packets(batch_expand(trace, seed, batch), want,
                            name + " seed " + std::to_string(seed) + " batch " +
                                std::to_string(batch));
      }
      expect_same_packets(mixed_expand(trace, seed), want,
                          name + " seed " + std::to_string(seed) + " mixed");
      expect_same_packets(ft::expand_trace(trace, seed), want,
                          name + " seed " + std::to_string(seed) + " expand_trace");
    }
  }
}

TEST(PacketStreamDifferential, FamiliesCoverTheirEdgeCases) {
  const auto families = trace_families();
  const auto find = [&](const std::string& name) -> const ft::FlowTrace& {
    for (const auto& [n, trace] : families) {
      if (n == name) return trace;
    }
    throw std::runtime_error("no family " + name);
  };
  // Pareto elephants: hundreds of packets, placed one at a time, spread
  // over more than one revolution of the calendar ring (~4.4 s).
  std::size_t elephants = 0;
  for (const auto& flow : find("sprint_5tuple").flows) {
    elephants += flow.packets > 200 && flow.duration_s > 4.4;
  }
  EXPECT_GT(elephants, 0u);
  std::size_t tied = 0;
  const auto& equal = find("equal_starts").flows;
  for (std::size_t i = 1; i < equal.size(); ++i) tied += equal[i].start_s == equal[i - 1].start_s;
  EXPECT_GT(tied, 50u);
  EXPECT_LT(find("negative_starts").flows.front().start_s, 0.0);
  const auto packets = ft::expand_trace(find("sparse"));
  ASSERT_FALSE(packets.empty());
  EXPECT_GT(packets.back().timestamp_ns - packets.front().timestamp_ns,
            static_cast<std::int64_t>(2.0e6 * kNsPerSec));
}

TEST(PacketStreamDifferential, OwningAndSourceConstructorsMatch) {
  const auto trace = generated(ft::FlowTraceConfig::sprint_5tuple(1.5, 3), 10.0, 200.0);
  const auto want = oracle_expand(trace, 0);
  ft::PacketStream owning(std::make_shared<const ft::FlowTrace>(trace));
  ft::PacketStream sourced(ft::FixedTraceSource(trace, "differential"));
  std::vector<fp::PacketRecord> a, b;
  while (auto pkt = owning.next()) a.push_back(*pkt);
  while (auto pkt = sourced.next()) b.push_back(*pkt);
  expect_same_packets(a, want, "owning");
  expect_same_packets(b, want, "source");
}

// ---------------------------------------------------------------------------
// Placement statistics: the stream's offsets are the order statistics of
// i.i.d. U(0, 1) draws scaled to [T, T + D]
// ---------------------------------------------------------------------------

/// Kolmogorov-Smirnov statistic sqrt(n) · sup |F_n - F| of `sample`.
template <class Cdf>
double ks_statistic(std::vector<double> sample, Cdf cdf) {
  std::sort(sample.begin(), sample.end());
  const auto n = static_cast<double>(sample.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const double f = cdf(sample[i]);
    d = std::max({d, f - static_cast<double>(i) / n, static_cast<double>(i + 1) / n - f});
  }
  return d * std::sqrt(n);
}

// The Kolmogorov distribution's 0.999 quantile: a correct placement
// fails one of these checks about once in a thousand seeds.
constexpr double kKsCritical = 1.95;

/// Each flow's normalized offsets (timestamp - T) / D, in packet order,
/// from the stream. make_trace gives flow i the source address i + 1.
std::vector<std::vector<double>> normalized_offsets(const ft::FlowTrace& trace,
                                                    std::uint64_t seed) {
  std::vector<std::vector<double>> offsets(trace.flows.size());
  for (const auto& pkt : ft::expand_trace(trace, seed)) {
    const auto& flow = trace.flows[pkt.tuple.src_ip - 1];
    offsets[pkt.tuple.src_ip - 1].push_back(
        static_cast<double>(pkt.timestamp_ns - to_ns(flow.start_s)) /
        (flow.duration_s * kNsPerSec));
  }
  return offsets;
}

TEST(PacketStreamPlacement, PooledOffsetsAreUniform) {
  // Flow sizes from 2 to 200 packets; a 1000 s duration gives offsets a
  // resolution of 1e-12.
  std::vector<FlowSpec> specs;
  const std::uint64_t sizes[] = {2, 3, 5, 10, 50, 200};
  for (int i = 0; i < 600; ++i) specs.push_back({1.0e-3 * i, 1000.0, sizes[i % 6]});
  const auto trace = make_trace(specs, 17);
  for (const std::uint64_t seed : {0u, 1u}) {
    std::vector<double> pooled;
    for (const auto& flow : normalized_offsets(trace, seed)) {
      pooled.insert(pooled.end(), flow.begin(), flow.end());
    }
    ASSERT_EQ(pooled.size(), trace.total_packets());
    EXPECT_LT(ks_statistic(pooled, [](double x) { return x; }), kKsCritical) << seed;
  }
}

TEST(PacketStreamPlacement, KthOffsetFollowsItsBetaLaw) {
  // Packet k (1-based) of an n-packet flow is the k-th order statistic of
  // n uniforms: Beta(k, n - k + 1).
  constexpr std::uint64_t kPackets = 50;
  std::vector<FlowSpec> specs;
  for (int i = 0; i < 2000; ++i) specs.push_back({1.0e-3 * i, 1000.0, kPackets});
  const auto trace = make_trace(specs, 23);
  const auto offsets = normalized_offsets(trace, 0);
  for (const std::uint64_t k : {1u, 17u, 50u}) {
    std::vector<double> kth;
    for (const auto& flow : offsets) {
      ASSERT_EQ(flow.size(), kPackets);
      kth.push_back(flow[k - 1]);
    }
    const double a = static_cast<double>(k);
    const double b = static_cast<double>(kPackets - k + 1);
    EXPECT_LT(ks_statistic(kth,
                           [&](double x) {
                             return flowrank::numeric::incbeta(a, b, std::clamp(x, 0.0, 1.0));
                           }),
              kKsCritical)
        << "k " << k;
  }
}

TEST(PacketStreamPlacement, EveryFlowStaysInsideItsIntervalInOrder) {
  std::vector<FlowSpec> specs;
  for (int i = 0; i < 300; ++i) {
    specs.push_back({0.01 * i, i % 5 == 0 ? 0.0 : 0.5 + 0.37 * (i % 11),
                     static_cast<std::uint64_t>(1 + (i * 7) % 90)});
  }
  const auto trace = make_trace(specs, 29);
  for (const std::uint64_t seed : {0u, 9u}) {
    const auto packets = ft::expand_trace(trace, seed);
    ASSERT_EQ(packets.size(), trace.total_packets());
    std::vector<std::uint64_t> seen(trace.flows.size(), 0);
    std::vector<std::int64_t> last(trace.flows.size(), std::numeric_limits<std::int64_t>::min());
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const auto& pkt = packets[i];
      if (i > 0) ASSERT_LE(packets[i - 1].timestamp_ns, pkt.timestamp_ns) << i;
      const std::size_t fi = pkt.tuple.src_ip - 1;
      const auto& flow = trace.flows[fi];
      const std::int64_t start = to_ns(flow.start_s);
      const auto end = start + static_cast<std::int64_t>(
                                   std::floor(flow.duration_s * kNsPerSec + 0.5));
      EXPECT_GE(pkt.timestamp_ns, start) << fi;
      EXPECT_LE(pkt.timestamp_ns, end) << fi;
      EXPECT_GE(pkt.timestamp_ns, last[fi]) << fi;
      EXPECT_EQ(pkt.tcp_seq, seen[fi] * trace.config.packet_size_bytes) << fi;
      last[fi] = pkt.timestamp_ns;
      ++seen[fi];
    }
    for (std::size_t fi = 0; fi < trace.flows.size(); ++fi) {
      EXPECT_EQ(seen[fi], trace.flows[fi].packets) << fi;
    }
  }
}

// A flow that runs past the trace end: PacketStream spreads its packets
// over the whole [T, T+D] and the packet path clamps those past the end
// into the last bin (run_binned_simulation), so the count path must split
// by the flow's true length and give the last bin the overflow share.
TEST(BinFlowCounts, FlowOverrunningTheTraceMatchesTheStream) {
  auto trace = make_trace({{8.0, 10.0, 100000}});
  trace.config.duration_s = 15.0;
  const double bin_s = 5.0;
  // Bin 1 = [5, 10) holds 2 s of the flow's 10 s: Bin(100000, 0.2).
  const double mean = 20000.0;
  const double sigma = std::sqrt(100000.0 * 0.2 * 0.8);
  for (const std::uint64_t seed : {0u, 5u}) {
    const auto counts = ft::bin_flow_counts(trace, bin_s, fp::FlowDefinition::kFiveTuple, seed);
    ASSERT_EQ(counts.bins.size(), 3u);
    EXPECT_TRUE(counts.bins[0].empty());
    ASSERT_EQ(counts.bins[1].size(), 1u);
    ASSERT_EQ(counts.bins[2].size(), 1u);
    const auto count_bin1 = static_cast<double>(counts.bins[1][0].packets);
    EXPECT_NEAR(count_bin1, mean, 5.0 * sigma) << seed;
    EXPECT_EQ(counts.bins[1][0].packets + counts.bins[2][0].packets, 100000u);

    const std::int64_t bin_ns = ft::bin_length_ns(bin_s);
    std::vector<std::uint64_t> streamed(counts.bins.size(), 0);
    for (const auto& pkt : ft::expand_trace(trace, seed)) {
      const auto bin = static_cast<std::size_t>(pkt.timestamp_ns / bin_ns);
      ++streamed[std::min(bin, streamed.size() - 1)];
    }
    EXPECT_EQ(streamed[0], 0u);
    EXPECT_NEAR(static_cast<double>(streamed[1]), mean, 5.0 * sigma) << seed;
    // Two independent Bin(100000, 0.2) draws: the difference has sd
    // sqrt(2) * sigma.
    EXPECT_NEAR(static_cast<double>(streamed[1]), count_bin1, 5.0 * std::sqrt(2.0) * sigma)
        << seed;
  }
}

// Digests of the stream and of bin_flow_counts, captured when placement
// and the bin split moved to the counter-based generator (stream v2).
TEST(PacketStreamGolden, DigestsMatchStreamV2Capture) {
  const auto sprint = generated(ft::FlowTraceConfig::sprint_5tuple(1.5, 7), 30.0, 500.0);
  const auto abilene = generated(ft::FlowTraceConfig::abilene(3), 4.0, 2000.0);
  ASSERT_EQ(sprint.total_packets(), 147023u);
  ASSERT_EQ(abilene.total_packets(), 46892u);
  EXPECT_EQ(stream_digest(sprint, 0), 0x67cb860d8b672601ULL);
  EXPECT_EQ(stream_digest(sprint, 5), 0xaace6a5f6a584ffeULL);
  EXPECT_EQ(stream_digest(abilene, 0), 0xedc852c29be1873fULL);
  EXPECT_EQ(stream_digest(abilene, 5), 0x18693e5a05edd488ULL);
}

TEST(BinCountsGolden, DigestsMatchStreamV2Capture) {
  const auto sprint = generated(ft::FlowTraceConfig::sprint_5tuple(1.5, 7), 30.0, 500.0);
  EXPECT_EQ(bin_digest(sprint, fp::FlowDefinition::kFiveTuple, 0), 0x562cc0aa5d1d3e01ULL);
  EXPECT_EQ(bin_digest(sprint, fp::FlowDefinition::kDstPrefix24, 0), 0x6628f0e1a55da2f3ULL);
  EXPECT_EQ(bin_digest(sprint, fp::FlowDefinition::kFiveTuple, 5), 0xbe0f522cb682d869ULL);
  EXPECT_EQ(bin_digest(sprint, fp::FlowDefinition::kDstPrefix24, 5), 0x94c8c07fc43aff0fULL);
}

// ---------------------------------------------------------------------------
// Input contract
// ---------------------------------------------------------------------------

TEST(PacketStream, RejectsTracesNotSortedByStart) {
  // A merge that activated flows only up to the first later start would
  // emit flow 2's packets after those near t = 10.
  const auto trace = make_trace({{1.0, 0.5, 3}, {10.0, 0.5, 3}, {2.0, 0.5, 3}});
  try {
    ft::PacketStream stream(trace);
    FAIL() << "unsorted trace accepted";
  } catch (const flowrank::Error& err) {
    EXPECT_EQ(err.category(), flowrank::ErrorCategory::kCorruptInput);
    EXPECT_NE(std::string(err.what()).find("sorted"), std::string::npos) << err.what();
  }
  EXPECT_THROW(ft::PacketStream(std::make_shared<const ft::FlowTrace>(trace)), flowrank::Error);
  auto nan_start = make_trace({{1.0, 0.5, 3}, {2.0, 0.5, 3}});
  nan_start.flows[1].start_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ft::PacketStream{nan_start}, flowrank::Error);
}

TEST(PacketStream, NegativeStartTimesStayOrdered) {
  const auto trace = make_trace({{-2.5, 3.0, 40}, {-1.0e-6, 1.0e-6, 4}, {0.25, 0.5, 10}});
  const auto packets = ft::expand_trace(trace, 3);
  ASSERT_EQ(packets.size(), 54u);
  EXPECT_LT(packets.front().timestamp_ns, -2'000'000'000);
  for (std::size_t i = 1; i < packets.size(); ++i) {
    EXPECT_LE(packets[i - 1].timestamp_ns, packets[i].timestamp_ns) << i;
  }
}

TEST(PacketStream, ZeroPacketFlowsEmitNothing) {
  const auto trace = make_trace({{0.0, 1.0, 0}, {0.5, 1.0, 3}, {0.6, 0.0, 0}, {2.0, 0.0, 0}});
  const auto packets = ft::expand_trace(trace);
  ASSERT_EQ(packets.size(), 3u);
  for (const auto& p : packets) EXPECT_EQ(p.tuple.src_ip, 2u);
}

TEST(PacketStream, RejectsFlowsBeyondThe32BitPacketIndex) {
  auto trace = make_trace({{0.0, 1.0, 3}, {0.5, 1.0, 3}});
  trace.flows[1].packets = std::uint64_t{1} << 32;
  EXPECT_THROW(ft::PacketStream{trace}, flowrank::Error);
  trace.flows[1].packets = std::numeric_limits<std::uint32_t>::max();
  EXPECT_NO_THROW(ft::PacketStream{trace});
}

TEST(PacketStream, RejectsNonFiniteAndOutOfRangeDurations) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1.0e10, -1.0e10}) {
    auto trace = make_trace({{0.0, 1.0, 3}, {0.5, 1.0, 3}});
    trace.flows[0].duration_s = bad;
    EXPECT_THROW(ft::PacketStream{trace}, flowrank::Error) << bad;
  }
}
