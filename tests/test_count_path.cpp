// Tests for the Monte-Carlo count path's building blocks: util::Engine's
// identity with std::mt19937_64, BinomialThinner's identity with the
// one-shot binomial_sample, bin_flow_counts' input contract, and digests
// of run_binned_simulation (the count path's rewrite kept them bit for
// bit; the stream-v2 bin split re-captured them).
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
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
