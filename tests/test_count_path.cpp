// Tests for the Monte-Carlo count path's building blocks: util::Engine's
// identity with std::mt19937_64, BinomialThinner's identity with the
// one-shot binomial_sample, bin_flow_counts' input contract, and digests
// of run_binned_simulation (the count path's rewrite kept them bit for
// bit; the stream-v2 bin split re-captured them).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/packet/records.hpp"
#include "flowrank/sim/binned_sim.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/util/binomial_sample.hpp"
#include "flowrank/util/error.hpp"
#include "flowrank/util/rng.hpp"

namespace fm = flowrank::metrics;
namespace fp = flowrank::packet;
namespace fs = flowrank::sim;
namespace ft = flowrank::trace;
namespace fu = flowrank::util;

// ---------------------------------------------------------------------------
// util::Engine against std::mt19937_64
// ---------------------------------------------------------------------------

TEST(Engine, RawDrawsEqualMt19937_64) {
  // 1000 draws cross the refill at draws 313, 625 and 937.
  std::vector<std::uint64_t> seeds = {0, 1, 5489, std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t i = 0; i < 10000; ++i) seeds.push_back(fu::derive_seed(0xE761, i));
  for (const std::uint64_t seed : seeds) {
    fu::Engine engine(seed);
    std::mt19937_64 reference(seed);
    for (int d = 1; d <= 1000; ++d) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " draw " << d;
    }
  }
}

TEST(Engine, DefaultSeedAndReseedEqualMt19937_64) {
  static_assert(fu::Engine::default_seed == std::mt19937_64::default_seed);
  static_assert(fu::Engine::min() == std::mt19937_64::min());
  static_assert(fu::Engine::max() == std::mt19937_64::max());
  fu::Engine engine;
  std::mt19937_64 reference;
  for (int d = 1; d < 10000; ++d) ASSERT_EQ(engine(), reference()) << d;
  // The standard's check value: the 10000th draw of a default-constructed
  // mt19937_64.
  EXPECT_EQ(engine(), 9981545732273789042ULL);
  engine.seed(77);
  reference.seed(77);
  for (int d = 0; d < 700; ++d) ASSERT_EQ(engine(), reference()) << d;
  engine.seed();
  EXPECT_EQ(engine(), std::mt19937_64{}());
}

TEST(Engine, DiscardEqualsMt19937_64AndDrawing) {
  for (const unsigned long long skip : {0ull, 1ull, 155ull, 156ull, 311ull, 312ull, 313ull,
                                        1000ull, 4999ull}) {
    for (const int drawn_first : {0, 1, 300, 312}) {
      fu::Engine engine(0xD15C + skip);
      fu::Engine stepped(0xD15C + skip);
      std::mt19937_64 reference(0xD15C + skip);
      for (int d = 0; d < drawn_first; ++d) {
        (void)engine();
        (void)stepped();
        (void)reference();
      }
      engine.discard(skip);
      reference.discard(skip);
      for (unsigned long long d = 0; d < skip; ++d) (void)stepped();
      for (int d = 0; d < 400; ++d) {
        const std::uint64_t want = reference();
        ASSERT_EQ(engine(), want) << "skip " << skip << " after " << drawn_first;
        ASSERT_EQ(stepped(), want) << "skip " << skip << " after " << drawn_first;
      }
    }
  }
}

TEST(Engine, StdDistributionDrawsEqualMt19937_64) {
  for (std::uint64_t stream = 0; stream < 200; ++stream) {
    auto engine = fu::make_engine(31, stream);
    std::mt19937_64 reference(fu::derive_seed(31, stream));
    std::uniform_real_distribution<double> unif(0.0, 3.5), reference_unif(0.0, 3.5);
    std::exponential_distribution<double> expo(2.0), reference_expo(2.0);
    std::uniform_int_distribution<std::uint64_t> pick(0, 999), reference_pick(0, 999);
    std::uniform_real_distribution<double> reference_unit(0.0, 1.0);
    for (int d = 0; d < 500; ++d) {
      ASSERT_EQ(unif(engine), reference_unif(reference)) << stream << " " << d;
      ASSERT_EQ(expo(engine), reference_expo(reference)) << stream << " " << d;
      ASSERT_EQ(pick(engine), reference_pick(reference)) << stream << " " << d;
      ASSERT_EQ(fu::uniform_unit_open(engine), 1.0 - reference_unit(reference))
          << stream << " " << d;
    }
  }
}

// ---------------------------------------------------------------------------
// BinomialThinner against the one-shot sampler
// ---------------------------------------------------------------------------

// n runs over [0, 5000]: across the 4096 table edge, and across n·p' = 30
// (the switch to BTPE) at p = 0.01, 0.1, 0.5 and 0.9. The second sweep
// walks tables the first one built.
TEST(BinomialThinner, EqualsOneShotStreamForEveryN) {
  for (const double p : {0.001, 0.01, 0.1, 0.5, 0.9}) {
    fu::BinomialThinner thin(p);
    auto engine = fu::make_engine(0x7AB1E, static_cast<std::uint64_t>(p * 1000));
    auto reference = engine;
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (std::uint64_t n = 0; n <= 5000; ++n) {
        ASSERT_EQ(thin(n, engine), fu::binomial_sample(n, p, reference))
            << "p " << p << " n " << n << " sweep " << sweep;
      }
    }
    EXPECT_EQ(engine(), reference()) << "streams diverged at p " << p;
  }
}

namespace {

/// The BINV walk as it was before the cumulative comparison: subtract
/// pmf(0), pmf(1), ... from the uniform until the remainder fits. Kept as
/// the oracle for the walk that replaced it. Returns the variate and the
/// uniform it was read from.
std::pair<std::uint64_t, double> subtract_chain_binv(std::uint64_t n, double p,
                                                     fu::Engine& engine) {
  const auto unit = [&engine] { return static_cast<double>(engine() >> 11) * 0x1.0p-53; };
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double qn = std::exp(nd * std::log(q));
  const double np = nd * p;
  const double bound = std::min(nd, np + 10.0 * std::sqrt(np * q + 1.0));
  double x = 0.0;
  double px = qn;
  double u0 = unit();
  double u = u0;
  while (u > px) {
    x += 1.0;
    if (x > bound) {
      x = 0.0;
      px = qn;
      u = u0 = unit();
      continue;
    }
    u -= px;
    px *= ((nd - x + 1.0) * p) / (x * q);
  }
  return {static_cast<std::uint64_t>(x), u0};
}

/// True when u lies within 4 ulps of some F(k), k in [lo, hi]: F accumulated
/// by the walk's own recurrence.
bool near_a_boundary(std::uint64_t n, double p, double u, std::uint64_t lo,
                     std::uint64_t hi) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  double px = std::exp(nd * std::log(q));
  double cdf = px;
  for (std::uint64_t k = 0; k <= hi; ++k) {
    if (k > 0) {
      const double x = static_cast<double>(k);
      px *= ((nd - x + 1.0) * p) / (x * q);
      cdf += px;
    }
    const double ulp = std::nextafter(cdf, 2.0) - cdf;
    if (k >= lo && std::abs(u - cdf) <= 4.0 * ulp) return true;
  }
  return false;
}

}  // namespace

// The cumulative walk differs from the subtract chain it replaced only
// where rounding decides: u within a few ulps of a cumulative boundary.
// 10^7 thinner draws on the inversion branch, tabled and untabled, at six
// rates (0.9 samples flipped) against the chain on a twin engine. Every
// disagreement must sit at a boundary; their count is recorded.
TEST(BinomialThinner, CumulativeWalkMatchesSubtractChainOffBoundaries) {
  std::uint64_t draws = 0;
  std::uint64_t disagreements = 0;
  for (const double p : {0.001, 0.01, 0.1, 0.3, 0.5, 0.9}) {
    const double pp = std::min(p, 1.0 - p);
    const auto max_n = std::min<std::uint64_t>(
        30000, static_cast<std::uint64_t>(fu::kBinomialInversionMaxMean / pp));
    fu::BinomialThinner thin(p);
    auto engine = fu::make_engine(0xD1FF, static_cast<std::uint64_t>(p * 1000));
    auto twin = engine;
    for (std::uint64_t i = 0; i < 1'700'000; ++i) {
      const std::uint64_t n = 1 + (i * 7919) % max_n;
      const std::uint64_t got = thin(n, engine);
      const auto [chain, u] = subtract_chain_binv(n, pp, twin);
      const std::uint64_t want = p > 0.5 ? n - chain : chain;
      ++draws;
      if (got == want) continue;
      ++disagreements;
      const std::uint64_t k_got = p > 0.5 ? n - got : got;
      ASSERT_TRUE(near_a_boundary(n, pp, u, std::min(k_got, chain), std::max(k_got, chain)))
          << "p " << p << " n " << n << " u " << u << " thinner " << got << " chain " << want;
    }
    EXPECT_EQ(engine(), twin()) << "streams diverged at p " << p;
  }
  EXPECT_GE(draws, 10'000'000u);
  RecordProperty("draws", static_cast<int>(draws));
  RecordProperty("disagreements", static_cast<int>(disagreements));
}

// ---------------------------------------------------------------------------
// bin_flow_counts input contract
// ---------------------------------------------------------------------------

namespace {

ft::FlowTrace five_packet_flows(std::size_t count) {
  ft::FlowTrace trace;
  trace.config = ft::FlowTraceConfig::sprint_5tuple(1.5, 5);
  trace.config.duration_s = 4.0;
  for (std::size_t i = 0; i < count; ++i) {
    fp::FlowRecord flow;
    flow.tuple.src_ip = static_cast<std::uint32_t>(i + 1);
    flow.tuple.dst_ip = 0x0A000001;
    flow.tuple.protocol = fp::Protocol::kTcp;
    flow.start_s = 0.5 * static_cast<double>(i);
    flow.duration_s = 0.25;
    flow.packets = 5;
    trace.flows.push_back(flow);
  }
  return trace;
}

std::uint64_t binned_packets(const ft::BinnedCounts& counts) {
  std::uint64_t total = 0;
  for (const auto& bin : counts.bins) {
    for (const auto& flow : bin) total += flow.packets;
  }
  return total;
}

}  // namespace

TEST(BinFlowCounts, RejectsNonFiniteOrNegativeStartsNamingTheFlow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    double start_s;
    double duration_s;
  } bad[] = {{nan, 0.25}, {inf, 0.25}, {-inf, 0.25}, {-0.5, 0.25}, {-1.0e-12, 1.0},
             {1.0, nan},  {1.0, inf}};
  for (const auto& [start_s, duration_s] : bad) {
    auto trace = five_packet_flows(4);
    trace.flows[2].start_s = start_s;
    trace.flows[2].duration_s = duration_s;
    try {
      (void)ft::bin_flow_counts(trace, 1.0, fp::FlowDefinition::kFiveTuple);
      FAIL() << "accepted start " << start_s << " duration " << duration_s;
    } catch (const flowrank::Error& err) {
      EXPECT_EQ(err.category(), flowrank::ErrorCategory::kCorruptInput);
      EXPECT_NE(std::string(err.what()).find("flow 2"), std::string::npos) << err.what();
    }
  }
}

TEST(BinFlowCounts, ConservesPacketsOfValidFlows) {
  const auto trace = five_packet_flows(4);
  EXPECT_EQ(binned_packets(ft::bin_flow_counts(trace, 1.0, fp::FlowDefinition::kFiveTuple)),
            20u);
  // A start at zero, and a finite start far past the trace (skipped, as
  // any start past the last bin is), are both fine.
  auto edges = trace;
  edges.flows[0].start_s = 0.0;
  edges.flows[3].start_s = 1.0e300;
  EXPECT_EQ(binned_packets(ft::bin_flow_counts(edges, 1.0, fp::FlowDefinition::kFiveTuple)),
            15u);
}

// ---------------------------------------------------------------------------
// bin_flow_counts' bucketed sort against std::sort + merge
// ---------------------------------------------------------------------------

namespace {

/// A trace of single-bin flows (duration 0), so every contribution is
/// known without the split's draws: flow i starts in bin bin_of(i) of a
/// 1 s grid and carries i % 7 + 1 packets.
template <class TupleOf, class BinOf>
ft::FlowTrace single_bin_flows(std::size_t count, std::size_t bins, TupleOf tuple_of,
                               BinOf bin_of) {
  ft::FlowTrace trace;
  trace.config = ft::FlowTraceConfig::sprint_5tuple(1.5, 5);
  trace.config.duration_s = static_cast<double>(bins);
  for (std::size_t i = 0; i < count; ++i) {
    fp::FlowRecord flow;
    flow.tuple = tuple_of(i);
    flow.start_s = static_cast<double>(bin_of(i)) + 0.5;
    flow.packets = i % 7 + 1;
    trace.flows.push_back(flow);
  }
  return trace;
}

/// The reference: each bin's contributions sorted by std::sort, equal keys
/// summed.
std::vector<std::vector<ft::BinFlowCount>> sort_merge_reference(const ft::FlowTrace& trace,
                                                                std::size_t bins,
                                                                fp::FlowDefinition def) {
  std::vector<std::vector<ft::BinFlowCount>> out(bins);
  for (const auto& flow : trace.flows) {
    out[static_cast<std::size_t>(flow.start_s)].push_back(
        ft::BinFlowCount{fp::make_flow_key(flow.tuple, def), flow.packets});
  }
  for (auto& bin : out) {
    std::sort(bin.begin(), bin.end(),
              [](const ft::BinFlowCount& a, const ft::BinFlowCount& b) { return a.key < b.key; });
    std::vector<ft::BinFlowCount> merged;
    for (const auto& entry : bin) {
      if (!merged.empty() && merged.back().key == entry.key) {
        merged.back().packets += entry.packets;
      } else {
        merged.push_back(entry);
      }
    }
    bin = std::move(merged);
  }
  return out;
}

void expect_matches_reference(const ft::FlowTrace& trace, std::size_t bins,
                              fp::FlowDefinition def, const char* what) {
  const auto got = ft::bin_flow_counts(trace, 1.0, def);
  const auto want = sort_merge_reference(trace, bins, def);
  ASSERT_EQ(got.bins.size(), bins) << what;
  for (std::size_t b = 0; b < bins; ++b) {
    ASSERT_EQ(got.bins[b].size(), want[b].size()) << what << ", bin " << b;
    for (std::size_t i = 0; i < want[b].size(); ++i) {
      ASSERT_TRUE(got.bins[b][i].key == want[b][i].key) << what << ", bin " << b << " entry " << i;
      ASSERT_EQ(got.bins[b][i].packets, want[b][i].packets) << what << ", bin " << b;
    }
  }
}

fp::FiveTuple tuple(std::uint32_t src, std::uint32_t dst, std::uint16_t sport,
                    std::uint16_t dport) {
  fp::FiveTuple t;
  t.src_ip = src;
  t.dst_ip = dst;
  t.src_port = sport;
  t.dst_port = dport;
  t.protocol = fp::Protocol::kTcp;
  return t;
}

}  // namespace

TEST(BinFlowCounts, BucketSortMatchesStdSortMerge) {
  auto engine = fu::make_engine(0xB1C5);
  std::vector<std::uint32_t> words(40000);
  for (auto& word : words) word = static_cast<std::uint32_t>(engine() >> 32);
  // 30000 flows over four bins, each bin a bucket pass over ~7500 keys.
  const auto check = [](auto tuple_of, fp::FlowDefinition def, const char* what) {
    expect_matches_reference(
        single_bin_flows(30000, 4, tuple_of, [](std::size_t i) { return i % 4; }), 4, def,
        what);
  };

  // /24 keys: hi = 0, so the digit must come from lo. Random destinations
  // in few and in many prefixes.
  check([&](std::size_t i) { return tuple(1, words[i], 2, 3); },
        fp::FlowDefinition::kDstPrefix24, "/24, random destinations");
  check([&](std::size_t i) { return tuple(1, 0x0A000000 | (words[i] & 0x3FFFF), 2, 3); },
        fp::FlowDefinition::kDstPrefix24, "/24, 1024 prefixes of one /14");

  // Keys sharing every top bit: one source and destination, so only the
  // ports vary, low in lo.
  check(
      [&](std::size_t i) {
        return tuple(0xC0A80001, 0xC0A80002, static_cast<std::uint16_t>(words[i]),
                     static_cast<std::uint16_t>(words[i] >> 16));
      },
      fp::FlowDefinition::kFiveTuple, "5-tuple, shared addresses");

  // Heavy duplicates: 40 distinct tuples in 30000 flows, so every bucket
  // is oversized and falls back to std::sort.
  check([&](std::size_t i) { return tuple(words[i % 40], words[i % 40 + 1], 80, 443); },
        fp::FlowDefinition::kFiveTuple, "5-tuple, 40 distinct keys");

  // Skew: most keys crowd one digit (same top source bits) with distinct
  // low bits, a few keys spread the digit range.
  check(
      [&](std::size_t i) {
        const std::uint32_t src = i % 100 == 0 ? words[i] : 0x7F000000 | (words[i] & 0xFFFF);
        return tuple(src, words[i + 1], static_cast<std::uint16_t>(i), 9);
      },
      fp::FlowDefinition::kFiveTuple, "5-tuple, one crowded digit");

  // Empty and one-flow bins beside full ones: bins 1 and 3 stay empty,
  // bin 2 holds one flow, bins 0 and 4 the rest (one /24 key throughout
  // in the second case).
  const auto sparse = [](std::size_t i) -> std::size_t {
    return i == 0 ? 2 : i % 2 == 0 ? 0 : 4;
  };
  expect_matches_reference(
      single_bin_flows(
          5000, 5, [&](std::size_t i) { return tuple(words[i], words[i + 1], 1, 2); }, sparse),
      5, fp::FlowDefinition::kFiveTuple, "5-tuple, empty and one-flow bins");
  expect_matches_reference(
      single_bin_flows(
          5000, 5,
          [&](std::size_t i) { return tuple(words[i], 0x0A0B0C00 | (i & 0xFF), 1, 2); },
          sparse),
      5, fp::FlowDefinition::kDstPrefix24, "/24, empty and one-flow bins");
}

// On a generated trace with the multi-bin split, every bin comes out
// strictly increasing in key (sorted, equal keys merged) with every packet
// kept, at both flow definitions.
TEST(BinFlowCounts, BinsAreStrictlyIncreasingAndConserve) {
  auto cfg = ft::FlowTraceConfig::sprint_5tuple(1.5, 31);
  cfg.duration_s = 30.0;
  const auto trace = ft::generate_flow_trace(cfg);
  std::uint64_t total = 0;
  for (const auto& flow : trace.flows) total += flow.packets;
  for (const auto def : {fp::FlowDefinition::kFiveTuple, fp::FlowDefinition::kDstPrefix24}) {
    const auto counts = ft::bin_flow_counts(trace, 5.0, def, 4);
    for (const auto& bin : counts.bins) {
      for (std::size_t i = 1; i < bin.size(); ++i) {
        ASSERT_TRUE(bin[i - 1].key < bin[i].key);
      }
    }
    EXPECT_EQ(binned_packets(counts), total);
  }
}

// ---------------------------------------------------------------------------
// run_binned_simulation digests
// ---------------------------------------------------------------------------

namespace {

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t bits(double value) {
  std::uint64_t out;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

std::uint64_t stats_digest(std::uint64_t h, const flowrank::numeric::RunningStats& s) {
  h = fnv1a(h, s.count());
  h = fnv1a(h, bits(s.mean()));
  h = fnv1a(h, bits(s.variance()));
  h = fnv1a(h, bits(s.min()));
  return fnv1a(h, bits(s.max()));
}

/// Every bin statistic of run_binned_simulation over both flow
/// definitions, both tie policies, t in {10, 25} and five rates.
std::uint64_t sim_digest(double beta) {
  auto cfg = ft::FlowTraceConfig::sprint_5tuple(beta, 21);
  cfg.duration_s = 20.0;
  cfg.flow_rate_per_s = 300.0;
  const auto trace = ft::generate_flow_trace(cfg);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto def : {fp::FlowDefinition::kFiveTuple, fp::FlowDefinition::kDstPrefix24}) {
    for (const auto policy : {fm::TiePolicy::kPaper, fm::TiePolicy::kLenient}) {
      for (const std::size_t t : {10u, 25u}) {
        fs::SimConfig sim;
        sim.bin_seconds = 5.0;
        sim.top_t = t;
        sim.sampling_rates = {0.001, 0.01, 0.1, 0.5, 0.9};
        sim.runs = 4;
        sim.definition = def;
        sim.tie_policy = policy;
        sim.seed = 3;
        for (const auto& series : fs::run_binned_simulation(trace, sim).series) {
          for (const auto& bin : series.bins) {
            h = fnv1a(h, bin.flows_in_bin);
            h = stats_digest(h, bin.ranking);
            h = stats_digest(h, bin.detection);
            h = stats_digest(h, bin.recall);
          }
        }
      }
    }
  }
  return h;
}

}  // namespace

// Captured when bin_flow_counts' multi-bin split moved to the
// counter-based generator (stream v2); 5 s bins over a 20 s trace split
// flows, so the split's stream reaches every digest.
TEST(BinnedSimGolden, DigestsMatchStreamV2Capture) {
  EXPECT_EQ(sim_digest(1.2), 0x080969139185b387ULL);
  EXPECT_EQ(sim_digest(1.5), 0x67182d482f06b9d0ULL);
  EXPECT_EQ(sim_digest(2.5), 0x3bf4d25dd06b95a3ULL);
}
