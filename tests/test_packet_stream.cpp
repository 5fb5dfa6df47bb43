// Tests for the batch trace expander: LazyEngine's identity with
// mt19937_64, the calendar-queue PacketStream against the per-packet
// min-heap merge it replaced (kept below, verbatim, as the oracle), input
// validation, and digests of streams captured from the heap expander.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/packet/records.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/flow_churn.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/util/binomial_sample.hpp"
#include "flowrank/util/error.hpp"
#include "flowrank/util/rng.hpp"

namespace fp = flowrank::packet;
namespace ft = flowrank::trace;
namespace fu = flowrank::util;

namespace {

// ---------------------------------------------------------------------------
// Oracle: the per-packet min-heap expander PacketStream used to be, copied
// verbatim (class renamed; only the reference constructor and next()).
// ---------------------------------------------------------------------------

constexpr double kNsPerSec = 1e9;

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * kNsPerSec));
}

class HeapPacketStream {
 public:
  HeapPacketStream(const ft::FlowTrace& trace, std::uint64_t seed = 0)
      : trace_(trace), seed_(seed) {
    slot_of_flow_.resize(trace_.flows.size());
    // Prime the heap with the first flow(s) so next() has work to do.
    if (!trace_.flows.empty()) {
      activate_flows_until(to_ns(trace_.flows.front().start_s));
    }
  }

  std::optional<fp::PacketRecord> next() {
    // Make sure any flow that starts before the current head packet is live.
    while (true) {
      if (heap_.empty()) {
        if (next_flow_ >= trace_.flows.size()) return std::nullopt;
        activate_flows_until(to_ns(trace_.flows[next_flow_].start_s));
        continue;
      }
      const std::int64_t head_ts = heap_.top().timestamp_ns;
      if (next_flow_ < trace_.flows.size() &&
          to_ns(trace_.flows[next_flow_].start_s) <= head_ts) {
        activate_flows_until(head_ts);
        continue;
      }
      break;
    }

    const PendingPacket head = heap_.top();
    heap_.pop();
    const auto& flow = trace_.flows[head.flow_index];
    auto& active = active_[slot_of_flow_[head.flow_index]];

    fp::PacketRecord pkt;
    pkt.timestamp_ns = head.timestamp_ns;
    pkt.tuple = flow.tuple;
    pkt.size_bytes = trace_.config.packet_size_bytes;
    if (flow.tuple.protocol == fp::Protocol::kTcp) {
      pkt.tcp_seq = head.packet_index * trace_.config.packet_size_bytes;
    }

    const std::uint32_t next_index = head.packet_index + 1;
    if (next_index < active.timestamps.size()) {
      heap_.push(PendingPacket{active.timestamps[next_index], head.flow_index,
                               next_index});
    } else {
      active.timestamps.clear();
      active.timestamps.shrink_to_fit();
    }
    ++emitted_;
    return pkt;
  }

 private:
  struct PendingPacket {
    std::int64_t timestamp_ns;
    std::uint32_t flow_index;
    std::uint32_t packet_index;
    friend bool operator>(const PendingPacket& a, const PendingPacket& b) {
      if (a.timestamp_ns != b.timestamp_ns) return a.timestamp_ns > b.timestamp_ns;
      if (a.flow_index != b.flow_index) return a.flow_index > b.flow_index;
      return a.packet_index > b.packet_index;
    }
  };

  std::vector<std::int64_t> place_packets(std::uint32_t flow_index) const {
    const auto& flow = trace_.flows[flow_index];
    // Stream-independent per-flow RNG: the same flow always gets the same
    // packet placement for a given (trace seed, stream seed) pair.
    auto engine = fu::make_engine(trace_.config.seed ^ (seed_ * 0x9e3779b97f4a7c15ULL),
                                  flow_index);
    std::vector<std::int64_t> ts(static_cast<std::size_t>(flow.packets));
    const std::int64_t start_ns = to_ns(flow.start_s);
    if (flow.packets == 1 || flow.duration_s <= 0.0) {
      std::fill(ts.begin(), ts.end(), start_ns);
      return ts;
    }
    std::uniform_real_distribution<double> unif(0.0, flow.duration_s);
    for (auto& t : ts) t = start_ns + to_ns(unif(engine));
    std::sort(ts.begin(), ts.end());
    return ts;
  }

  void activate_flows_until(std::int64_t now_ns) {
    while (next_flow_ < trace_.flows.size() &&
           to_ns(trace_.flows[next_flow_].start_s) <= now_ns) {
      const auto flow_index = static_cast<std::uint32_t>(next_flow_);
      ActiveFlow active;
      active.timestamps = place_packets(flow_index);
      const auto slot = static_cast<std::uint32_t>(active_.size());
      slot_of_flow_[flow_index] = slot;
      heap_.push(PendingPacket{active.timestamps.front(), flow_index, 0});
      active_.push_back(std::move(active));
      ++next_flow_;
    }
  }

  const ft::FlowTrace& trace_;
  std::uint64_t seed_;
  std::size_t next_flow_ = 0;  // next trace flow not yet activated
  // Per active flow: remaining packet timestamps (ascending) and cursor.
  struct ActiveFlow {
    std::vector<std::int64_t> timestamps;
    std::uint32_t cursor = 0;
  };
  std::vector<ActiveFlow> active_;              // indexed by slot
  std::vector<std::uint32_t> slot_of_flow_;     // flow index -> slot
  std::priority_queue<PendingPacket, std::vector<PendingPacket>, std::greater<>> heap_;
  std::uint64_t emitted_ = 0;
};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::vector<fp::PacketRecord> heap_expand(const ft::FlowTrace& trace, std::uint64_t seed) {
  HeapPacketStream stream(trace, seed);
  std::vector<fp::PacketRecord> packets;
  while (auto pkt = stream.next()) packets.push_back(*pkt);
  return packets;
}

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
// LazyEngine
// ---------------------------------------------------------------------------

// 400 draws cross the hand-over to a real engine after draw 156 and the
// second twist at draw 313.
constexpr int kIdentityDraws = 400;

std::vector<std::uint64_t> identity_seeds(std::uint64_t master) {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t i = 0; i < 10000; ++i) seeds.push_back(fu::derive_seed(master, i));
  return seeds;
}

TEST(LazyEngine, RawDrawsEqualMt19937_64) {
  for (const std::uint64_t seed : identity_seeds(0xF10A)) {
    fu::LazyEngine lazy(seed);
    fu::Engine reference(seed);
    for (int d = 1; d <= kIdentityDraws; ++d) {
      ASSERT_EQ(lazy(), reference()) << "seed " << seed << " draw " << d;
    }
  }
}

TEST(LazyEngine, UniformRealDrawsEqualMt19937_64) {
  for (const std::uint64_t seed : identity_seeds(0xBEEF)) {
    const double hi = 1.0 + static_cast<double>(seed % 1000);
    std::uniform_real_distribution<double> lazy_unif(0.0, hi), reference_unif(0.0, hi);
    fu::LazyEngine lazy(seed);
    fu::Engine reference(seed);
    for (int d = 1; d <= kIdentityDraws; ++d) {
      ASSERT_EQ(lazy_unif(lazy), reference_unif(reference)) << "seed " << seed << " draw " << d;
    }
  }
}

TEST(LazyEngine, MakeLazyEngineMatchesMakeEngine) {
  for (std::uint64_t stream = 0; stream < 64; ++stream) {
    auto lazy = fu::make_lazy_engine(42, stream);
    auto reference = fu::make_engine(42, stream);
    for (int d = 0; d < 8; ++d) ASSERT_EQ(lazy(), reference()) << stream;
  }
}

TEST(LazyEngine, BinomialSampleStreamEqualsEngine) {
  // Both branches (inversion and BTPE), enough variates to cross draw 156.
  const std::pair<std::uint64_t, double> cases[] = {
      {10, 0.3}, {200, 0.05}, {1000, 0.4}, {100000, 0.7}, {7, 0.999}};
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    fu::LazyEngine lazy(fu::derive_seed(9, seed));
    fu::Engine reference(fu::derive_seed(9, seed));
    for (int round = 0; round < 60; ++round) {
      for (const auto& [n, p] : cases) {
        ASSERT_EQ(fu::binomial_sample(n, p, lazy), fu::binomial_sample(n, p, reference))
            << "seed " << seed << " round " << round << " n " << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PacketStream against the heap oracle
// ---------------------------------------------------------------------------

TEST(PacketStreamDifferential, MatchesHeapExpanderOnEveryFamily) {
  for (const auto& [name, trace] : trace_families()) {
    for (const std::uint64_t seed : {0u, 5u}) {
      const auto want = heap_expand(trace, seed);
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
  // Pareto elephants draw more than 156 uniforms: the engine's hand-over.
  std::size_t elephants = 0;
  for (const auto& flow : find("sprint_5tuple").flows) {
    elephants += flow.packets > 156 && flow.duration_s > 0.0;
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
  const auto want = heap_expand(trace, 0);
  ft::PacketStream owning(std::make_shared<const ft::FlowTrace>(trace));
  ft::PacketStream sourced(ft::FixedTraceSource(trace, "differential"));
  std::vector<fp::PacketRecord> a, b;
  while (auto pkt = owning.next()) a.push_back(*pkt);
  while (auto pkt = sourced.next()) b.push_back(*pkt);
  expect_same_packets(a, want, "owning");
  expect_same_packets(b, want, "source");
}

// Digests of the heap expander's streams and of bin_flow_counts, captured
// before the calendar-queue rewrite and the lazily seeded engines.
TEST(PacketStreamGolden, DigestsMatchHeapExpanderCapture) {
  const auto sprint = generated(ft::FlowTraceConfig::sprint_5tuple(1.5, 7), 30.0, 500.0);
  const auto abilene = generated(ft::FlowTraceConfig::abilene(3), 4.0, 2000.0);
  ASSERT_EQ(sprint.total_packets(), 147023u);
  ASSERT_EQ(abilene.total_packets(), 46892u);
  EXPECT_EQ(stream_digest(sprint, 0), 0xc163b439f7077244ULL);
  EXPECT_EQ(stream_digest(sprint, 5), 0xf3b1693c06a8ed44ULL);
  EXPECT_EQ(stream_digest(abilene, 0), 0xaa32369fd622fdf5ULL);
  EXPECT_EQ(stream_digest(abilene, 5), 0x76d8a12926675717ULL);
}

TEST(BinCountsGolden, DigestsMatchCaptureBeforeLazyEngines) {
  const auto sprint = generated(ft::FlowTraceConfig::sprint_5tuple(1.5, 7), 30.0, 500.0);
  EXPECT_EQ(bin_digest(sprint, fp::FlowDefinition::kFiveTuple, 0), 0x46a4fa2ea0059247ULL);
  EXPECT_EQ(bin_digest(sprint, fp::FlowDefinition::kDstPrefix24, 0), 0xc80607e05acd0f1eULL);
  EXPECT_EQ(bin_digest(sprint, fp::FlowDefinition::kFiveTuple, 5), 0x51d3ef93ea1e3fb8ULL);
  EXPECT_EQ(bin_digest(sprint, fp::FlowDefinition::kDstPrefix24, 5), 0x5ef736dc373721f0ULL);
}

// ---------------------------------------------------------------------------
// Input contract
// ---------------------------------------------------------------------------

TEST(PacketStream, RejectsTracesNotSortedByStart) {
  // The heap merge activated flows only up to the first later start, so
  // this trace used to emit flow 2's packets after those near t = 10.
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
