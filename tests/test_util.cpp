// Tests for utilities: RNG determinism, the portable binomial sampler,
// table formatting, CLI parsing.
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/numeric/binomial.hpp"
#include "flowrank/util/binomial_sample.hpp"
#include "flowrank/util/cli.hpp"
#include "flowrank/util/rng.hpp"
#include "flowrank/util/table.hpp"

namespace fu = flowrank::util;

TEST(Rng, DeriveSeedIsDeterministicAndSpreads) {
  EXPECT_EQ(fu::derive_seed(1, 0), fu::derive_seed(1, 0));
  EXPECT_NE(fu::derive_seed(1, 0), fu::derive_seed(1, 1));
  EXPECT_NE(fu::derive_seed(1, 0), fu::derive_seed(2, 0));
  // Nearby streams decorrelate: low bits differ roughly half the time.
  int differing_bits = 0;
  const auto a = fu::derive_seed(42, 100);
  const auto b = fu::derive_seed(42, 101);
  for (int bit = 0; bit < 64; ++bit) {
    differing_bits += ((a >> bit) & 1) != ((b >> bit) & 1);
  }
  EXPECT_GT(differing_bits, 16);
}

// Regression: the simulation used to pack (rate_idx, run, bin) into one
// stream id with shifts ((rate_idx << 40) ^ (run << 20) ^ bin), which
// collides once a trace has >= 2^20 bins — (run=1, bin=0) aliased
// (run=0, bin=2^20), correlating Monte-Carlo runs. The splitmix mixing
// must keep such triples on distinct streams.
TEST(Rng, MixStreamsSeparatesTriplesBeyondShiftFieldWidths) {
  const auto stream_a = fu::mix_streams(0, 1, 0);
  const auto stream_b = fu::mix_streams(0, 0, std::uint64_t{1} << 20);
  EXPECT_NE(stream_a, stream_b);
  // The engines they seed must diverge too.
  auto ea = fu::make_engine(3, stream_a);
  auto eb = fu::make_engine(3, stream_b);
  EXPECT_NE(ea(), eb());
}

TEST(Rng, MixStreamsIsDeterministicAndCollisionFreeOnAGrid) {
  std::set<std::uint64_t> seen;
  std::size_t total = 0;
  // Rate/run ranges as the simulation uses them; bins sweep both small
  // indices and the 2^20 / 2^40 aliasing boundaries of the old packing.
  std::vector<std::uint64_t> bins;
  for (std::uint64_t b = 0; b < 64; ++b) bins.push_back(b);
  for (const std::uint64_t base : {std::uint64_t{1} << 20, std::uint64_t{1} << 40}) {
    for (std::uint64_t off = 0; off < 8; ++off) bins.push_back(base + off);
  }
  for (std::uint64_t rate_idx = 0; rate_idx < 4; ++rate_idx) {
    for (std::uint64_t run = 0; run < 30; ++run) {
      for (const std::uint64_t bin : bins) {
        EXPECT_EQ(fu::mix_streams(rate_idx, run, bin),
                  fu::mix_streams(rate_idx, run, bin));
        seen.insert(fu::mix_streams(rate_idx, run, bin));
        ++total;
      }
    }
  }
  EXPECT_EQ(seen.size(), total);
}

TEST(Rng, EnginesReproduce) {
  auto e1 = fu::make_engine(7, 3);
  auto e2 = fu::make_engine(7, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(e1(), e2());
}

TEST(Table, AlignedOutput) {
  fu::Table table({"name", "value"});
  table.add_row(std::string("alpha"), 1.5);
  table.add_row(std::string("b"), 22LL);
  std::ostringstream os;
  table.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.columns(), 2u);
}

TEST(Table, CsvQuoting) {
  fu::Table table({"a", "b"});
  table.add_row(std::string("x,y"), std::string("say \"hi\""));
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, RejectsMalformedUse) {
  EXPECT_THROW(fu::Table{std::vector<std::string>{}}, std::invalid_argument);
  fu::Table table({"only"});
  table.add_cell(std::string("1"));
  EXPECT_THROW(table.add_cell(std::string("2")), std::logic_error);
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",     "--alpha=1.5", "--flag", "--name", "value",
                        "positional"};
  fu::Cli cli(6, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 1.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_string("name", ""), "value");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, FallbacksAndValidation) {
  const char* argv[] = {"prog", "--n=12"};
  fu::Cli cli(2, argv);
  EXPECT_EQ(cli.get_int("n", 0), 12);
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_FALSE(cli.has("missing"));
  const char* bad[] = {"prog", "--n=notanumber"};
  fu::Cli bad_cli(2, bad);
  EXPECT_THROW((void)bad_cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)bad_cli.get_double("n", 0.0), std::invalid_argument);
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=1"};
  fu::Cli cli(4, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  const char* bad[] = {"prog", "--x=maybe"};
  fu::Cli bad_cli(2, bad);
  EXPECT_THROW((void)bad_cli.get_bool("x", false), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// util::binomial_sample: the portable canonical binomial stream
// ---------------------------------------------------------------------------

namespace {

/// Chi-squared goodness-of-fit of `trials` draws of draw(engine) against
/// the exact Bin(n, p) pmf, with tail bins merged until every cell
/// expects >= 5 counts. Returns (statistic, degrees of freedom).
template <class Draw>
std::pair<double, int> chi_squared_against_pmf(std::uint64_t n, double p, int trials,
                                               std::uint64_t seed, Draw draw) {
  auto engine = fu::make_engine(seed);
  std::vector<std::uint64_t> counts(n + 1, 0);
  for (int i = 0; i < trials; ++i) {
    const std::uint64_t k = draw(engine);
    EXPECT_LE(k, n);
    if (k <= n) ++counts[k];
  }
  // Merge k-cells left to right into bins with expected count >= 5.
  double chi2 = 0.0;
  int cells = 0;
  double expected_acc = 0.0;
  double observed_acc = 0.0;
  for (std::uint64_t k = 0; k <= n; ++k) {
    expected_acc +=
        trials * flowrank::numeric::binomial_pmf(static_cast<std::int64_t>(k),
                                                 static_cast<std::int64_t>(n), p);
    observed_acc += static_cast<double>(counts[k]);
    if (expected_acc >= 5.0 && k < n) {
      const double d = observed_acc - expected_acc;
      chi2 += d * d / expected_acc;
      ++cells;
      expected_acc = 0.0;
      observed_acc = 0.0;
    }
  }
  // Whatever remains (the right tail, incl. pmf mass beyond the last
  // observed k) forms the final cell.
  if (expected_acc > 0.0) {
    const double d = observed_acc - expected_acc;
    chi2 += d * d / expected_acc;
    ++cells;
  }
  return {chi2, cells - 1};
}

/// chi_squared_against_pmf of binomial_sample(n, p) draws.
std::pair<double, int> binomial_chi_squared(std::uint64_t n, double p,
                                            int trials, std::uint64_t seed) {
  return chi_squared_against_pmf(n, p, trials, seed, [n, p](fu::Engine& engine) {
    return fu::binomial_sample(n, p, engine);
  });
}

}  // namespace

TEST(BinomialSample, EdgeCasesAndValidation) {
  auto engine = fu::make_engine(5);
  EXPECT_EQ(fu::binomial_sample(0, 0.5, engine), 0u);
  EXPECT_EQ(fu::binomial_sample(100, 0.0, engine), 0u);
  EXPECT_EQ(fu::binomial_sample(100, 1.0, engine), 100u);
  EXPECT_THROW((void)fu::binomial_sample(10, -0.1, engine), std::invalid_argument);
  EXPECT_THROW((void)fu::binomial_sample(10, 1.5, engine), std::invalid_argument);
  EXPECT_THROW((void)fu::binomial_sample(10, std::nan(""), engine),
               std::invalid_argument);
}

TEST(BinomialSample, DeterministicInEngineState) {
  auto a = fu::make_engine(123, 9);
  auto b = fu::make_engine(123, 9);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(fu::binomial_sample(5000, 0.37, a), fu::binomial_sample(5000, 0.37, b));
  }
}

// Chi-squared goodness of fit across the BINV/BTPE branch boundary
// (n·min(p,1-p) = kBinomialInversionMaxMean = 30): both algorithms, both
// the direct and the flipped (p > 1/2) parameterizations, including cases
// that sit just on either side of the threshold. The 0.999-quantile of
// chi-squared(d) is below d + 3.3·sqrt(2d) + 4 in this dof range, so the
// bound fails with probability << 1e-3 per case were the sampler exact —
// and the seeds are fixed, so the test is deterministic.
TEST(BinomialSample, ChiSquaredAcrossBranchBoundary) {
  struct Case {
    std::uint64_t n;
    double p;
  };
  const Case cases[] = {
      {50, 0.2},     // BINV, small mean
      {100, 0.29},   // BINV, just under the boundary (29)
      {100, 0.31},   // BTPE, just over the boundary (31)
      {100, 0.71},   // flipped: pp = 0.29, BINV
      {100, 0.69},   // flipped: pp = 0.31, BTPE
      {2000, 0.01},  // BINV at large n, tiny p (the thinning regime)
      {2000, 0.2},   // BTPE bulk
      {400, 0.5},    // BTPE at the symmetric point
  };
  std::uint64_t seed = 1000;
  for (const auto& c : cases) {
    const auto [chi2, dof] = binomial_chi_squared(c.n, c.p, 40000, seed++);
    ASSERT_GT(dof, 3);
    EXPECT_LT(chi2, dof + 3.3 * std::sqrt(2.0 * dof) + 4.0)
        << "n=" << c.n << " p=" << c.p << " dof=" << dof;
  }
}

// BinomialThinner memoizes setup only — its stream must match
// binomial_sample draw for draw, across both branches and flips, so that
// sweeps using a thinner are bit-identical to one-shot callers.
TEST(BinomialSample, ThinnerMatchesOneShotStream) {
  for (double p : {0.001, 0.02, 0.31, 0.5, 0.69, 0.97}) {
    fu::BinomialThinner thinner(p);
    auto one_shot_engine = fu::make_engine(77, 3);
    auto thinner_engine = fu::make_engine(77, 3);
    std::uint64_t sizes[] = {1, 2, 3, 7, 9, 2, 40, 7, 1000, 7, 3, 200000, 9, 1};
    for (int rep = 0; rep < 50; ++rep) {
      for (std::uint64_t n : sizes) {
        ASSERT_EQ(fu::binomial_sample(n, p, one_shot_engine),
                  thinner(n, thinner_engine))
            << "p=" << p << " n=" << n << " rep=" << rep;
      }
    }
    // Engines consumed the same number of variates.
    EXPECT_EQ(one_shot_engine(), thinner_engine());
  }
}

// The guide-table thinner against the Bin(n, p) pmf at its edges: n = 1
// (the shortest table), 4095 and 4096 (at p = 0.001 the last tabled n
// and the first untabled one), and n·p' just under the BTPE switch; at
// a low rate, at p = 1/2, and flipped (p = 0.97 samples at p' = 0.03).
// The bound is looser than ChiSquaredAcrossBranchBoundary's because some
// cases have a single degree of freedom: P(chi2(1) > 13.6) < 3e-4. Seeds
// are fixed, so the test is deterministic.
TEST(BinomialSample, ThinnerChiSquaredAtGuideTableEdges) {
  const struct {
    std::uint64_t n;
    double p;
  } cases[] = {
      {1, 0.001},    {4095, 0.001}, {4096, 0.001}, {29999, 0.001},  // 29.999
      {1, 0.5},      {4095, 0.5},   {4096, 0.5},   {59, 0.5},       // 29.5
      {1, 0.97},     {4095, 0.97},  {4096, 0.97},  {999, 0.97},     // 29.97
  };
  std::uint64_t seed = 2000;
  for (const auto& c : cases) {
    fu::BinomialThinner thin(c.p);
    const auto [chi2, dof] = chi_squared_against_pmf(
        c.n, c.p, 100000, seed++, [&thin, n = c.n](fu::Engine& engine) {
          return thin(n, engine);
        });
    ASSERT_GE(dof, 1) << "n=" << c.n << " p=" << c.p;
    EXPECT_LT(chi2, dof + 4.0 * std::sqrt(2.0 * dof) + 7.0)
        << "n=" << c.n << " p=" << c.p << " dof=" << dof;
  }
}

TEST(BinomialSample, ThinnerValidatesAndShortCircuits) {
  EXPECT_THROW(fu::BinomialThinner{-0.1}, std::invalid_argument);
  EXPECT_THROW(fu::BinomialThinner{1.5}, std::invalid_argument);
  fu::BinomialThinner zero(0.0), one(1.0);
  auto engine = fu::make_engine(1);
  EXPECT_EQ(zero(100, engine), 0u);
  EXPECT_EQ(one(100, engine), 100u);
  EXPECT_EQ(one(0, engine), 0u);
}
