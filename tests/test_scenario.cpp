// Tests for the workload layer: pluggable trace sources (synthetic, FRT1
// file replay, multi-epoch concatenation), the ON/OFF bursty arrival
// model, the mixture flow-size distribution, and the declarative spec
// grammar (file + CLI overrides) with its trace/monitor/fleet builders;
// every checked-in spec under scenarios/ must parse.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/dist/mixture.hpp"
#include "flowrank/dist/pareto.hpp"
#include "flowrank/report/result_sink.hpp"
#include "flowrank/sim/experiment.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/trace/trace_io.hpp"
#include "flowrank/trace/trace_source.hpp"
#include "flowrank/util/cli.hpp"
#include "flowrank/util/error.hpp"
#include "flowrank/util/rng.hpp"

namespace fd = flowrank::dist;
namespace fsim = flowrank::sim;
namespace ft = flowrank::trace;

namespace {

ft::FlowTraceConfig tiny_sprint(std::uint64_t seed = 3) {
  auto cfg = ft::FlowTraceConfig::sprint_5tuple(1.5, seed);
  cfg.duration_s = 10.0;
  cfg.flow_rate_per_s = 40.0;
  return cfg;
}

std::string write_temp(const std::string& filename, const std::string& contents) {
  const std::string path = ::testing::TempDir() + filename;
  std::ofstream os(path);
  os << contents;
  return path;
}

}  // namespace

// ---------------------------------------------------------------------------
// Mixture distribution
// ---------------------------------------------------------------------------

TEST(Mixture, CcdfIsWeightedSumAndQuantileInverts) {
  const auto heavy = std::make_shared<fd::Pareto>(fd::Pareto::from_mean(30.0, 1.3));
  const auto light = std::make_shared<fd::Pareto>(fd::Pareto::from_mean(5.0, 2.5));
  const fd::Mixture mix({{1.0, heavy}, {3.0, light}});

  for (double x : {2.0, 5.0, 20.0, 200.0}) {
    EXPECT_NEAR(mix.ccdf(x), 0.25 * heavy->ccdf(x) + 0.75 * light->ccdf(x), 1e-12);
  }
  EXPECT_NEAR(mix.mean(), 0.25 * heavy->mean() + 0.75 * light->mean(), 1e-9);
  for (double y : {0.9, 0.5, 0.1, 0.01, 1e-4}) {
    EXPECT_NEAR(mix.ccdf(mix.tail_quantile(y)), y, 1e-6) << "y " << y;
  }
  EXPECT_DOUBLE_EQ(mix.ccdf(mix.min_size()), 1.0);
}

TEST(Mixture, SampleMeanTracksAnalyticMean) {
  const fd::Mixture mix(
      {{1.0, std::make_shared<fd::Pareto>(fd::Pareto::from_mean(10.0, 2.5))},
       {1.0, std::make_shared<fd::Pareto>(fd::Pareto::from_mean(4.0, 3.0))}});
  auto engine = flowrank::util::make_engine(5);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += mix.sample(engine);
  EXPECT_NEAR(acc / n, mix.mean(), 0.35);
}

TEST(Mixture, RejectsDegenerateInput) {
  EXPECT_THROW(fd::Mixture{{}}, std::invalid_argument);
  EXPECT_THROW(fd::Mixture({{1.0, nullptr}}), std::invalid_argument);
  EXPECT_THROW(
      fd::Mixture({{0.0, std::make_shared<fd::Pareto>(2.0, 1.5)}}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ON/OFF bursty arrivals
// ---------------------------------------------------------------------------

TEST(OnOffArrivals, DisabledKeepsHistoricalTraceBitIdentical) {
  // The on_off field must not perturb the generator's draw sequence when
  // disabled: old seeds keep producing the exact same flows.
  auto plain = tiny_sprint();
  auto with_field = tiny_sprint();
  with_field.on_off.enabled = false;
  with_field.on_off.on_factor = 99.0;  // ignored while disabled
  const auto a = ft::generate_flow_trace(plain);
  const auto b = ft::generate_flow_trace(with_field);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flows[i].start_s, b.flows[i].start_s);
    EXPECT_EQ(a.flows[i].packets, b.flows[i].packets);
    EXPECT_EQ(a.flows[i].tuple.src_ip, b.flows[i].tuple.src_ip);
  }
}

TEST(OnOffArrivals, BurstsConcentrateArrivals) {
  auto cfg = tiny_sprint(9);
  cfg.duration_s = 200.0;
  cfg.flow_rate_per_s = 50.0;
  cfg.on_off.enabled = true;
  cfg.on_off.mean_on_s = 2.0;
  cfg.on_off.mean_off_s = 8.0;
  cfg.on_off.on_factor = 5.0;
  cfg.on_off.off_factor = 0.0;  // silent lulls
  const auto trace = ft::generate_flow_trace(cfg);
  ASSERT_GT(trace.flows.size(), 100u);
  // Flows stay sorted and inside the trace.
  for (std::size_t i = 1; i < trace.flows.size(); ++i) {
    EXPECT_LE(trace.flows[i - 1].start_s, trace.flows[i].start_s);
  }
  EXPECT_GE(trace.flows.front().start_s, 0.0);
  EXPECT_LT(trace.flows.back().start_s, cfg.duration_s);
  // Burstiness: with 20% duty cycle at 5x rate, 1-second arrival counts
  // must be far more dispersed than Poisson (index of dispersion ~1).
  std::vector<int> per_second(static_cast<std::size_t>(cfg.duration_s), 0);
  for (const auto& flow : trace.flows) {
    ++per_second[static_cast<std::size_t>(flow.start_s)];
  }
  double mean = 0.0;
  for (int c : per_second) mean += c;
  mean /= static_cast<double>(per_second.size());
  double var = 0.0;
  for (int c : per_second) var += (c - mean) * (c - mean);
  var /= static_cast<double>(per_second.size());
  EXPECT_GT(var / mean, 2.0) << "arrivals look Poisson, not bursty";
}

TEST(OnOffArrivals, InvalidParametersThrow) {
  auto cfg = tiny_sprint();
  cfg.on_off.enabled = true;
  cfg.on_off.mean_on_s = 0.0;
  EXPECT_THROW((void)ft::generate_flow_trace(cfg), std::invalid_argument);
  cfg = tiny_sprint();
  cfg.on_off.enabled = true;
  cfg.on_off.on_factor = 0.0;
  cfg.on_off.off_factor = 0.0;
  EXPECT_THROW((void)ft::generate_flow_trace(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Trace sources
// ---------------------------------------------------------------------------

TEST(TraceSource, SyntheticMatchesGeneratorExactly) {
  const ft::SyntheticTraceSource source(tiny_sprint(), "tiny");
  const auto from_source = source.flows();
  const auto direct = ft::generate_flow_trace(tiny_sprint());
  ASSERT_EQ(from_source.flows.size(), direct.flows.size());
  for (std::size_t i = 0; i < direct.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(from_source.flows[i].start_s, direct.flows[i].start_s);
    EXPECT_EQ(from_source.flows[i].packets, direct.flows[i].packets);
  }
  EXPECT_EQ(source.name(), "synthetic(tiny)");
}

TEST(TraceSource, FileReplayRoundTripsThroughPacketStream) {
  const auto trace = ft::generate_flow_trace(tiny_sprint(7));
  const std::string path = ::testing::TempDir() + "replay_source.frt1";
  ft::save_flow_records(path, trace.flows);

  ft::FileTraceSource::Options options;
  options.packet_size_bytes = trace.config.packet_size_bytes;
  options.seed = trace.config.seed;
  const ft::FileTraceSource source(path, options);
  const auto replayed = source.flows();
  ASSERT_EQ(replayed.flows.size(), trace.flows.size());
  EXPECT_GE(replayed.config.duration_s, trace.flows.back().start_s);

  // The replayed packets are the original packets: placement depends only
  // on (config seed, flow index), both preserved by the file round trip.
  ft::PacketStream original(trace);
  ft::PacketStream from_file(source);
  while (true) {
    auto a = original.next();
    auto b = from_file.next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_EQ(a->timestamp_ns, b->timestamp_ns);
    EXPECT_EQ(a->tuple.src_ip, b->tuple.src_ip);
  }
  std::remove(path.c_str());
}

TEST(TraceSource, FileReplayMissingFileThrows) {
  const ft::FileTraceSource source("/nonexistent/missing.frt1");
  EXPECT_THROW((void)source.flows(), std::runtime_error);
}

TEST(TraceSource, ConcatOffsetsEpochsBackToBack) {
  auto epoch = std::make_shared<ft::SyntheticTraceSource>(tiny_sprint(4), "e");
  const ft::ConcatTraceSource concat({epoch, epoch, epoch}, /*gap_s=*/5.0);
  const auto trace = concat.flows();
  const auto single = epoch->flows();
  ASSERT_EQ(trace.flows.size(), 3 * single.flows.size());
  EXPECT_DOUBLE_EQ(trace.config.duration_s, 3 * 10.0 + 2 * 5.0);
  // Sorted overall; epoch k's flows live in [k*15, k*15+10).
  for (std::size_t i = 1; i < trace.flows.size(); ++i) {
    EXPECT_LE(trace.flows[i - 1].start_s, trace.flows[i].start_s);
  }
  const std::size_t n = single.flows.size();
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(trace.flows[k * n + i].start_s,
                       single.flows[i].start_s + 15.0 * static_cast<double>(k));
    }
  }
}

TEST(TraceSource, ConcatRejectsDegenerateInput) {
  EXPECT_THROW(ft::ConcatTraceSource{{}}, std::invalid_argument);
  EXPECT_THROW(ft::ConcatTraceSource({nullptr}), std::invalid_argument);
  auto epoch = std::make_shared<ft::SyntheticTraceSource>(tiny_sprint(), "e");
  EXPECT_THROW(ft::ConcatTraceSource({epoch}, -1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------------

TEST(SpecGrammar, ParseDistGrammar) {
  const auto pareto = fsim::parse_dist("pareto:mean=9.6,beta=1.5");
  EXPECT_NEAR(pareto->mean(), 9.6, 1e-9);
  const auto mix = fsim::parse_dist(
      "pareto:mean=30,beta=1.3,weight=1|weibull:mean=6,shape=0.7,weight=3");
  EXPECT_NEAR(mix->mean(), 0.25 * 30.0 + 0.75 * 6.0, 1e-6);
  EXPECT_THROW((void)fsim::parse_dist("gaussian:mean=5"), std::invalid_argument);
  EXPECT_THROW((void)fsim::parse_dist("pareto:mean=5,typo=1"), std::invalid_argument);
}

TEST(SpecGrammar, FileParsingAndCliOverrides) {
  const std::string path = write_temp("spec_parse.spec",
                                      "# comment\n"
                                      "name   = parse test\n"
                                      "preset = abilene\n"
                                      "bin    = 15    # trailing comment\n"
                                      "rates  = 0.01,0.1\n"
                                      "ties   = lenient\n"
                                      "model  = packet\n"
                                      "onoff  = on=1,off=4\n"
                                      "definition = prefix24\n");
  auto spec = fsim::parse_experiment_file(path);
  EXPECT_EQ(spec.name, "parse test");
  EXPECT_EQ(spec.preset, "abilene");
  EXPECT_DOUBLE_EQ(spec.bin_seconds, 15.0);
  ASSERT_EQ(spec.sampling_rates.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.sampling_rates[1], 0.1);
  EXPECT_EQ(spec.tie_policy, flowrank::metrics::TiePolicy::kLenient);
  EXPECT_EQ(spec.model, fsim::ExperimentModel::kPacket);
  EXPECT_TRUE(spec.on_off.enabled);
  EXPECT_DOUBLE_EQ(spec.on_off.mean_off_s, 4.0);
  EXPECT_EQ(spec.definition, flowrank::packet::FlowDefinition::kDstPrefix24);

  const char* argv[] = {"test", "--bin", "30", "--model", "mc"};
  const flowrank::util::Cli cli(5, argv);
  fsim::apply_experiment_overrides(spec, cli);
  EXPECT_DOUBLE_EQ(spec.bin_seconds, 30.0);
  EXPECT_EQ(spec.model, fsim::ExperimentModel::kMc);
  std::remove(path.c_str());
}

namespace {
/// Switches the working directory for one scope.
class ScopedCwd {
 public:
  explicit ScopedCwd(const std::filesystem::path& dir)
      : saved_(std::filesystem::current_path()) {
    std::filesystem::current_path(dir);
  }
  ~ScopedCwd() { std::filesystem::current_path(saved_); }
  ScopedCwd(const ScopedCwd&) = delete;
  ScopedCwd& operator=(const ScopedCwd&) = delete;

 private:
  std::filesystem::path saved_;
};
}  // namespace

// A relative `trace = <file>` resolves against the spec file's directory,
// so the checked-in replay specs load their recording from any working
// directory; a relative --trace on the command line stays relative to the
// working directory.
TEST(SpecGrammar, RelativeTracePathsFollowTheSpecFile) {
  namespace fs = std::filesystem;
  const fs::path source(FLOWRANK_SOURCE_DIR);
  const fs::path elsewhere = fs::path(::testing::TempDir()) / "spec_cwd";
  fs::create_directories(elsewhere / "scenarios");
  ScopedCwd cwd(elsewhere);
  for (const char* spec_file :
       {"scenarios/frt1_replay.spec", "scenarios/figures/est_space_saving_replay.spec"}) {
    const auto spec = fsim::parse_experiment_file((source / spec_file).string());
    EXPECT_EQ(fs::path(spec.trace), (source / "scenarios/tiny_sprint.frt1").lexically_normal())
        << spec_file;
    EXPECT_EQ(fsim::make_trace_source(spec)->flows().flows.size(), 738u) << spec_file;
  }

  // A spec next to its trace, named by a relative path from another
  // directory, and the generator names, which are not paths.
  fs::copy_file(source / "scenarios/tiny_sprint.frt1", elsewhere / "scenarios/copy.frt1",
                fs::copy_options::overwrite_existing);
  { std::ofstream(elsewhere / "scenarios/local.spec") << "model = packet\ntrace = copy.frt1\n"; }
  { std::ofstream(elsewhere / "scenarios/synth.spec") << "trace = synthetic\n"; }
  EXPECT_EQ(fsim::parse_experiment_file("scenarios/local.spec").trace, "scenarios/copy.frt1");
  EXPECT_EQ(fsim::parse_experiment_file("scenarios/synth.spec").trace, "synthetic");

  // --trace overrides the spec's file and resolves against the cwd.
  const std::string spec_arg = (source / "scenarios/frt1_replay.spec").string();
  const char* argv[] = {"test", "--spec", spec_arg.c_str(), "--trace", "scenarios/copy.frt1"};
  const flowrank::util::Cli cli(5, argv);
  const auto overridden = fsim::experiment_from_cli(cli);
  EXPECT_EQ(overridden.trace, "scenarios/copy.frt1");
  EXPECT_EQ(fsim::make_trace_source(overridden)->flows().flows.size(), 738u);
}

TEST(SpecGrammar, UnknownKeysAndValuesFailLoudly) {
  const std::string path = write_temp("spec_bad_key.spec", "not_a_key = 1\n");
  EXPECT_THROW((void)fsim::parse_experiment_file(path), std::runtime_error);
  std::remove(path.c_str());
  ft::FlowTraceConfig cfg;  // silence unused-include warnings
  (void)cfg;
  fsim::ExperimentSpec spec;
  const char* argv[] = {"test", "--ties", "strict"};
  const flowrank::util::Cli cli(3, argv);
  EXPECT_THROW(fsim::apply_experiment_overrides(spec, cli), std::invalid_argument);
  // A retired key is unknown like any other: a spec that still sets it
  // must fail loudly, not run on the default sampler.
  EXPECT_THROW(fsim::apply_experiment_entry(spec, "sampler-split", "on"),
               std::invalid_argument);
}

// `model = mc|packet` selects the engine; a `path` key must fail loudly,
// not be accepted and then ignored.
TEST(SpecGrammar, RetiredPathKeyIsUnknown) {
  fsim::ExperimentSpec spec;
  try {
    fsim::apply_experiment_entry(spec, "path", "packet");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'path'"), std::string::npos)
        << e.what();
  }
  const auto& keys = fsim::experiment_keys();
  EXPECT_EQ(std::find(keys.begin(), keys.end(), "path"), keys.end());

  const std::string file = write_temp("spec_path.spec", "path = packet\n");
  EXPECT_THROW((void)fsim::parse_experiment_file(file), flowrank::Error);
  std::remove(file.c_str());
}

TEST(SpecGrammar, ParseErrorsReportFileLineAndKey) {
  // A bad value on line 3 must name the file, the line and the key.
  const std::string path = write_temp(
      "spec_bad_line.spec", "name = x\nbin = 10\nrates = nope\n");
  try {
    (void)fsim::parse_experiment_file(path);
    FAIL() << "expected flowrank::Error(kSpec)";
  } catch (const flowrank::Error& e) {
    EXPECT_EQ(e.category(), flowrank::ErrorCategory::kSpec);
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":3"), std::string::npos) << what;
    EXPECT_NE(what.find("key 'rates'"), std::string::npos) << what;
  }
  std::remove(path.c_str());

  // A line with no '=' is a grammar error at that line.
  const std::string path2 =
      write_temp("spec_no_eq.spec", "name = x\njust words\n");
  try {
    (void)fsim::parse_experiment_file(path2);
    FAIL() << "expected flowrank::Error(kSpec)";
  } catch (const flowrank::Error& e) {
    EXPECT_EQ(e.category(), flowrank::ErrorCategory::kSpec);
    EXPECT_NE(std::string(e.what()).find(path2 + ":2"), std::string::npos);
  }
  std::remove(path2.c_str());

  // A missing file is an io error, not a spec error.
  try {
    (void)fsim::parse_experiment_file("/nonexistent/definitely_missing.spec");
    FAIL() << "expected flowrank::Error(kIo)";
  } catch (const flowrank::Error& e) {
    EXPECT_EQ(e.category(), flowrank::ErrorCategory::kIo);
  }
}

TEST(SpecGrammar, MonitorKeysParseIntoMonitorOptions) {
  const std::string path = write_temp("spec_monitor.spec",
                                      "mode = monitor\n"
                                      "window = 30\n"
                                      "snapshot-every = 2\n"
                                      "overload = shed\n"
                                      "budget = 4000\n"
                                      "ewma = 0.25\n"
                                      "watchdog-ms = 25\n"
                                      "on-stall = fail\n"
                                      "fault.corrupt = 0.01\n"
                                      "fault.truncate = 0.02\n"
                                      "fault.stall-every = 48\n"
                                      "fault.stall-ms = 40\n"
                                      "fault.burst-flows = 1500\n"
                                      "fault.burst-every = 45\n"
                                      "fault.burst-duration = 0.5\n"
                                      "fault.seed = 7\n");
  const fsim::ExperimentSpec spec = fsim::parse_experiment_file(path);
  std::remove(path.c_str());

  EXPECT_TRUE(spec.monitor.enabled);
  EXPECT_DOUBLE_EQ(spec.monitor.window_s, 30.0);
  EXPECT_EQ(spec.monitor.snapshot_every, 2u);
  EXPECT_TRUE(spec.monitor.shed);
  EXPECT_EQ(spec.monitor.window_packet_budget, 4000u);
  EXPECT_DOUBLE_EQ(spec.monitor.ewma_alpha, 0.25);
  EXPECT_EQ(spec.monitor.watchdog_ms, 25u);
  EXPECT_TRUE(spec.monitor.fail_on_stall);
  EXPECT_DOUBLE_EQ(spec.monitor.fault.corrupt_fraction, 0.01);
  EXPECT_DOUBLE_EQ(spec.monitor.fault.truncate_fraction, 0.02);
  EXPECT_EQ(spec.monitor.fault.stall_every_batches, 48u);
  EXPECT_EQ(spec.monitor.fault.stall_ms, 40u);
  EXPECT_EQ(spec.monitor.fault.burst_flows, 1500u);
  EXPECT_DOUBLE_EQ(spec.monitor.fault.burst_every_s, 45.0);
  EXPECT_DOUBLE_EQ(spec.monitor.fault.burst_duration_s, 0.5);
  EXPECT_EQ(spec.monitor.fault.seed, 7u);
  EXPECT_TRUE(spec.monitor.fault.any());

  // Monitor keys reject bad values like every other spec key.
  fsim::ExperimentSpec s;
  EXPECT_THROW(fsim::apply_experiment_entry(s, "mode", "streaming"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(s, "overload", "panic"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(s, "ewma", "0"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(s, "on-stall", "retry"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(s, "fault.unknown", "1"),
               std::invalid_argument);

  // A monitor run is a packet-model run: the engine refuses mode=monitor
  // on the default mc model before writing any output.
  fsim::ExperimentSpec mon;
  fsim::apply_experiment_entry(mon, "mode", "monitor");
  mon.sampling_rates = {0.1};
  std::ostringstream out;
  flowrank::report::CsvResultSink sink(out);
  EXPECT_THROW((void)fsim::run_experiment(mon, sink), std::invalid_argument);
  EXPECT_TRUE(out.str().empty());
}

TEST(SpecGrammar, ThreadCapValidatedAtParseTime) {
  fsim::ExperimentSpec spec;
  const char* argv[] = {"test", "--threads", "100000"};
  const flowrank::util::Cli cli(3, argv);
  EXPECT_THROW(fsim::apply_experiment_overrides(spec, cli), std::invalid_argument);
}

// Counts stored in a narrower field are range-checked, not wrapped: one
// past the field's range fails naming the key, from a file and from the
// command line, and the range's last value is accepted.
TEST(SpecGrammar, NarrowCountsAreRangeChecked) {
  struct Case {
    const char* mode;
    const char* key;
    const char* too_big;
    const char* largest;
  };
  const Case cases[] = {
      {"batch", "packet-size", "4294967796", "4294967295"},
      {"batch", "runs", "2147483648", "2147483647"},
      {"monitor", "watchdog-ms", "4294967296", "4294967295"},
      {"monitor", "fault.stall-ms", "4294967296", "4294967295"},
      {"aggregate", "deadline-ms", "4294967296", "4294967295"},
      {"aggregate", "chan.outage-agent", "4294967296", "4294967295"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.key) + " = " + c.too_big);
    const std::string named = std::string("key '") + c.key + "'";
    const auto expect_refused = [&named](const auto& action) {
      try {
        action();
        ADD_FAILURE() << "accepted";
      } catch (const flowrank::Error& e) {
        EXPECT_EQ(e.category(), flowrank::ErrorCategory::kSpec);
        EXPECT_NE(std::string(e.what()).find(named), std::string::npos) << e.what();
      }
    };
    const std::string head = std::string("model = packet\nmode = ") + c.mode + "\n";
    const std::string file =
        write_temp("spec_narrow.spec", head + c.key + " = " + c.too_big + "\n");
    expect_refused([&] { (void)fsim::parse_experiment_file(file); });
    try {
      (void)fsim::parse_experiment_file(file);
    } catch (const flowrank::Error& e) {
      EXPECT_NE(std::string(e.what()).find("spec_narrow.spec:3: "), std::string::npos)
          << e.what();
    }
    std::remove(file.c_str());

    const std::string flag = std::string("--") + c.key;
    for (const char* value : {c.too_big, c.largest}) {
      const char* argv[] = {"test", "--model", "packet", "--mode", c.mode, flag.c_str(), value};
      const flowrank::util::Cli cli(7, argv);
      fsim::ExperimentSpec spec;
      if (value == c.too_big) {
        expect_refused([&] { fsim::apply_experiment_overrides(spec, cli); });
      } else {
        EXPECT_NO_THROW(fsim::apply_experiment_overrides(spec, cli));
      }
    }
  }
  fsim::ExperimentSpec spec;
  fsim::apply_experiment_entry(spec, "packet-size", "4294967295");
  EXPECT_EQ(spec.packet_size_bytes, 4294967295u);
  fsim::apply_experiment_entry(spec, "runs", "2147483647");
  EXPECT_EQ(spec.runs, 2147483647);
}

TEST(SpecGrammar, FileReplaySpecRunsEndToEnd) {
  const auto trace = ft::generate_flow_trace(tiny_sprint(11));
  const std::string frt1 = ::testing::TempDir() + "spec_replay.frt1";
  ft::save_flow_records(frt1, trace.flows);
  const std::string file = write_temp("spec_replay.spec",
                                      "name = replay\n"
                                      "trace = " + frt1 + "\n"
                                      "model = packet\n"
                                      "bin = 2.5\n"
                                      "t = 3\n"
                                      "rates = 0.5\n"
                                      "shards = 2\n");
  const auto spec = fsim::parse_experiment_file(file);
  std::ostringstream out;
  flowrank::report::CsvResultSink sink(out);
  const std::size_t rows = fsim::run_experiment(spec, sink);
  // One row per (rate, bin): the 10 s recording in 2.5 s bins at one rate.
  EXPECT_EQ(rows, 4u);
  // The replayed population is the recorded one.
  EXPECT_EQ(fsim::make_trace_source(spec)->flows().flows.size(), trace.flows.size());
  EXPECT_NE(out.str().find("replay"), std::string::npos);
  std::remove(frt1.c_str());
  std::remove(file.c_str());
}

// ---------------------------------------------------------------------------
// mode = aggregate (multi-vantage keys)
// ---------------------------------------------------------------------------

TEST(SpecGrammar, AggregateKeysParseIntoAggregateOptions) {
  const std::string path = write_temp("spec_aggregate.spec",
                                      "mode = aggregate\n"
                                      "agents = 4\n"
                                      "split = packet\n"
                                      "deadline-ms = 100\n"
                                      "quarantine-after = 2\n"
                                      "readmit-after = 3\n"
                                      "summary = spacesaving\n"
                                      "summary-slots = 256\n"
                                      "union-capacity = 128\n"
                                      "chan.drop = 0.1\n"
                                      "chan.corrupt = 0.05\n"
                                      "chan.delay = 0.02\n"
                                      "chan.delay-windows = 2\n"
                                      "chan.duplicate = 0.01\n"
                                      "chan.outage-agent = 1\n"
                                      "chan.outage-from = 5\n"
                                      "chan.outage-windows = 3\n"
                                      "chan.seed = 99\n");
  const fsim::ExperimentSpec spec = fsim::parse_experiment_file(path);
  std::remove(path.c_str());

  EXPECT_TRUE(spec.aggregate.enabled);
  EXPECT_FALSE(spec.monitor.enabled);
  EXPECT_EQ(spec.aggregate.agents, 4u);
  EXPECT_EQ(spec.aggregate.split, flowrank::agg::FleetSplit::kPacket);
  EXPECT_EQ(spec.aggregate.deadline_ms, 100u);
  EXPECT_EQ(spec.aggregate.quarantine_after, 2u);
  EXPECT_EQ(spec.aggregate.readmit_after, 3u);
  EXPECT_EQ(spec.aggregate.summary, flowrank::agg::SummaryKind::kSpaceSaving);
  EXPECT_EQ(spec.aggregate.summary_slots, 256u);
  EXPECT_EQ(spec.aggregate.union_capacity, 128u);
  EXPECT_DOUBLE_EQ(spec.aggregate.chan.drop_fraction, 0.1);
  EXPECT_DOUBLE_EQ(spec.aggregate.chan.corrupt_fraction, 0.05);
  EXPECT_DOUBLE_EQ(spec.aggregate.chan.delay_fraction, 0.02);
  EXPECT_EQ(spec.aggregate.chan.delay_windows, 2u);
  EXPECT_DOUBLE_EQ(spec.aggregate.chan.duplicate_fraction, 0.01);
  EXPECT_EQ(spec.aggregate.chan.outage_agent, 1u);
  EXPECT_EQ(spec.aggregate.chan.outage_from, 5u);
  EXPECT_EQ(spec.aggregate.chan.outage_windows, 3u);
  EXPECT_EQ(spec.aggregate.chan.seed, 99u);
  EXPECT_TRUE(spec.aggregate.chan.any());

  // Aggregate keys validate like every other spec key.
  fsim::ExperimentSpec s;
  EXPECT_THROW(fsim::apply_experiment_entry(s, "agents", "0"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(s, "split", "striped"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(s, "summary", "countmin"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(s, "quarantine-after", "0"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(s, "readmit-after", "0"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(s, "summary-slots", "0"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(s, "chan.drop", "1.5"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(s, "chan.delay-windows", "0"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(s, "chan.unknown", "1"),
               std::invalid_argument);

  // Modes are mutually exclusive flags: the last mode key wins and
  // clears the others (a CLI override can re-mode a spec file).
  fsim::ExperimentSpec agg_spec;
  fsim::apply_experiment_entry(agg_spec, "mode", "aggregate");
  fsim::apply_experiment_entry(agg_spec, "mode", "monitor");
  EXPECT_TRUE(agg_spec.monitor.enabled);
  EXPECT_FALSE(agg_spec.aggregate.enabled);
  fsim::apply_experiment_entry(agg_spec, "mode", "aggregate");
  EXPECT_FALSE(agg_spec.monitor.enabled);
  EXPECT_TRUE(agg_spec.aggregate.enabled);
}

// An unknown key names the valid keys for the ACTIVE mode, so a typo in
// an aggregate spec is not answered with monitor keys.
TEST(SpecGrammar, UnknownKeyHintNamesActiveModeKeys) {
  const auto message_for = [](const char* mode) {
    fsim::ExperimentSpec spec;
    if (mode != nullptr) fsim::apply_experiment_entry(spec, "mode", mode);
    try {
      fsim::apply_experiment_entry(spec, "bogus-key", "1");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "unknown key accepted";
    return std::string();
  };

  const std::string batch = message_for(nullptr);
  EXPECT_NE(batch.find("unknown key 'bogus-key'"), std::string::npos) << batch;
  EXPECT_NE(batch.find("mode=batch"), std::string::npos) << batch;
  EXPECT_NE(batch.find("rates"), std::string::npos) << batch;
  EXPECT_NE(batch.find("churn"), std::string::npos) << batch;
  EXPECT_EQ(batch.find("chan.drop"), std::string::npos) << batch;
  EXPECT_EQ(batch.find("fault.corrupt"), std::string::npos) << batch;

  const std::string monitor = message_for("monitor");
  EXPECT_NE(monitor.find("mode=monitor"), std::string::npos) << monitor;
  EXPECT_NE(monitor.find("fault.corrupt"), std::string::npos) << monitor;
  EXPECT_NE(monitor.find("watchdog-ms"), std::string::npos) << monitor;
  EXPECT_EQ(monitor.find("chan.drop"), std::string::npos) << monitor;

  const std::string aggregate = message_for("aggregate");
  EXPECT_NE(aggregate.find("mode=aggregate"), std::string::npos) << aggregate;
  EXPECT_NE(aggregate.find("chan.drop"), std::string::npos) << aggregate;
  EXPECT_NE(aggregate.find("quarantine-after"), std::string::npos) << aggregate;
  EXPECT_EQ(aggregate.find("fault.corrupt"), std::string::npos) << aggregate;
  EXPECT_EQ(aggregate.find("watchdog-ms"), std::string::npos) << aggregate;
}

// `rate` is the exact model's fixed rate; the monitor and the fleet
// sample at `rates`. In those modes `rate` is an unknown key, wherever it
// comes from: after the mode, before it, in a file or on the command line.
TEST(SpecGrammar, RateIsUnknownOutsideBatchMode) {
  const auto expect_unknown_rate = [](const std::string& what, const char* mode) {
    EXPECT_NE(what.find("unknown key 'rate'"), std::string::npos) << what;
    EXPECT_NE(what.find(std::string("mode=") + mode), std::string::npos) << what;
    EXPECT_NE(what.find("rates"), std::string::npos) << what;
    EXPECT_EQ(what.find(", rate,"), std::string::npos) << what;
  };
  for (const char* mode : {"monitor", "aggregate"}) {
    fsim::ExperimentSpec after;
    fsim::apply_experiment_entry(after, "mode", mode);
    try {
      fsim::apply_experiment_entry(after, "rate", "0.5");
      ADD_FAILURE() << "rate accepted after mode=" << mode;
    } catch (const std::invalid_argument& e) {
      expect_unknown_rate(e.what(), mode);
    }

    fsim::ExperimentSpec before;
    fsim::apply_experiment_entry(before, "rate", "0.5");
    try {
      fsim::apply_experiment_entry(before, "mode", mode);
      ADD_FAILURE() << "rate accepted before mode=" << mode;
    } catch (const std::invalid_argument& e) {
      expect_unknown_rate(e.what(), mode);
    }

    const std::string file = write_temp(
        "spec_rate.spec", "model = packet\nrate = 0.5\nmode = " + std::string(mode) + "\n");
    try {
      (void)fsim::parse_experiment_file(file);
      ADD_FAILURE() << "spec file with rate accepted in mode=" << mode;
    } catch (const flowrank::Error& e) {
      EXPECT_EQ(e.category(), flowrank::ErrorCategory::kSpec);
      expect_unknown_rate(e.what(), mode);
    }
    std::remove(file.c_str());

    const std::string mode_flag = mode;
    const char* argv[] = {"test", "--mode", mode_flag.c_str(), "--rate", "0.5"};
    const flowrank::util::Cli cli(5, argv);
    fsim::ExperimentSpec from_cli;
    try {
      fsim::apply_experiment_overrides(from_cli, cli);
      ADD_FAILURE() << "--rate accepted with --mode " << mode;
    } catch (const std::invalid_argument& e) {
      expect_unknown_rate(e.what(), mode);
    }
  }

  // Batch mode still reads it, and lists it among its keys.
  fsim::ExperimentSpec batch;
  fsim::apply_experiment_entry(batch, "rate", "0.25");
  EXPECT_EQ(batch.exact_rate, 0.25);
  try {
    fsim::apply_experiment_entry(batch, "bogus-key", "1");
    ADD_FAILURE() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(", rate,"), std::string::npos) << e.what();
  }
}

// Every mode-family key is refused outside its family's mode, like
// `rate` above: after the mode (at the key), before it (at `mode`), under
// the default batch mode (check_mode_keys), in a file or on the command
// line. The error names the key.
TEST(SpecGrammar, FamilyKeysAreUnknownOutsideTheirMode) {
  struct Case {
    const char* mode;
    const char* key;
    const char* value;
  };
  const Case cases[] = {
      {"batch", "ewma", "0.3"},           {"batch", "budget", "1000"},
      {"batch", "snapshot-every", "2"},   {"batch", "fault.corrupt", "0.01"},
      {"monitor", "agents", "2"},         {"monitor", "chan.drop", "0.1"},
      {"aggregate", "watchdog-ms", "50"}, {"aggregate", "fault.seed", "9"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.key) + " under mode=" + c.mode);
    const bool batch = std::string(c.mode) == "batch";
    const std::string model = batch ? "exact" : "packet";
    const std::string unknown = std::string("unknown key '") + c.key + "'";
    const auto expect_unknown = [&unknown](const auto& action) {
      try {
        action();
        ADD_FAILURE() << "accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(unknown), std::string::npos) << e.what();
      }
    };

    // After the mode: at the key, or (batch) once the mode is final.
    fsim::ExperimentSpec after;
    fsim::apply_experiment_entry(after, "model", model);
    fsim::apply_experiment_entry(after, "mode", c.mode);
    if (batch) {
      fsim::apply_experiment_entry(after, c.key, c.value);
      expect_unknown([&] { fsim::check_mode_keys(after); });
    } else {
      expect_unknown([&] { fsim::apply_experiment_entry(after, c.key, c.value); });
    }

    // Before the mode: at `mode`.
    fsim::ExperimentSpec before;
    fsim::apply_experiment_entry(before, "model", model);
    fsim::apply_experiment_entry(before, c.key, c.value);
    expect_unknown([&] { fsim::apply_experiment_entry(before, "mode", c.mode); });

    // Spec files, in both orders and (batch) with no mode line at all.
    const std::string key_line = std::string(c.key) + " = " + c.value + "\n";
    const std::string mode_line = std::string("mode = ") + c.mode + "\n";
    std::vector<std::string> bodies = {key_line + mode_line, mode_line + key_line};
    if (batch) bodies.push_back(key_line);
    for (const std::string& body : bodies) {
      const std::string file = write_temp("spec_family.spec", "model = " + model + "\n" + body);
      try {
        (void)fsim::parse_experiment_file(file);
        ADD_FAILURE() << "spec file accepted:\n" << body;
      } catch (const flowrank::Error& e) {
        EXPECT_EQ(e.category(), flowrank::ErrorCategory::kSpec);
        EXPECT_NE(std::string(e.what()).find(unknown), std::string::npos) << e.what();
      }
      std::remove(file.c_str());
    }

    // --key overrides, with and without --mode.
    const std::string flag = std::string("--") + c.key;
    const char* with_mode[] = {"test",     "--model", model.c_str(), "--mode",
                               c.mode, flag.c_str(), c.value};
    const flowrank::util::Cli cli(7, with_mode);
    expect_unknown([&] {
      fsim::ExperimentSpec spec;
      fsim::apply_experiment_overrides(spec, cli);
      fsim::check_mode_keys(spec);
    });
    if (batch) {
      const char* no_mode[] = {"test", "--model", model.c_str(), flag.c_str(), c.value};
      const flowrank::util::Cli bare(5, no_mode);
      const fsim::ExperimentSpec spec = fsim::experiment_from_cli(bare);
      std::ostringstream out;
      flowrank::report::CsvResultSink sink(out);
      expect_unknown([&] { (void)fsim::run_experiment(spec, sink); });
      EXPECT_TRUE(out.str().empty());
    }
  }
}

TEST(SpecGrammar, MakeFleetConfigMapsSpecOntoFleet) {
  fsim::ExperimentSpec spec;
  fsim::apply_experiment_entry(spec, "mode", "aggregate");
  fsim::apply_experiment_entry(spec, "agents", "5");
  fsim::apply_experiment_entry(spec, "bin", "30");
  fsim::apply_experiment_entry(spec, "t", "7");
  fsim::apply_experiment_entry(spec, "shards", "2");
  fsim::apply_experiment_entry(spec, "seed", "42");
  fsim::apply_experiment_entry(spec, "rates", "0.25");
  fsim::apply_experiment_entry(spec, "summary", "table");
  fsim::apply_experiment_entry(spec, "union-capacity", "64");
  fsim::apply_experiment_entry(spec, "chan.drop", "0.2");

  const flowrank::agg::FleetConfig config = fsim::make_fleet_config(spec);
  EXPECT_EQ(config.agents, 5u);
  EXPECT_DOUBLE_EQ(config.window_s, 30.0);
  EXPECT_DOUBLE_EQ(config.sampling_rate, 0.25);
  EXPECT_EQ(config.seed, 42u);
  EXPECT_EQ(config.top_t, 7u);
  EXPECT_EQ(config.num_shards, 2u);
  EXPECT_EQ(config.union_capacity, 64u);
  EXPECT_DOUBLE_EQ(config.chan.drop_fraction, 0.2);

  // Not an aggregate spec -> no fleet config.
  fsim::ExperimentSpec batch;
  batch.sampling_rates = {0.1};
  EXPECT_THROW((void)fsim::make_fleet_config(batch), std::invalid_argument);
  // The fleet runs one rate; a rate sweep is a batch concept.
  fsim::ExperimentSpec multi;
  fsim::apply_experiment_entry(multi, "mode", "aggregate");
  multi.sampling_rates = {0.1, 0.5};
  EXPECT_THROW((void)fsim::make_fleet_config(multi), std::invalid_argument);
}

TEST(SpecGrammar, ChurnTraceKeysParseAndBuildTheSource) {
  const std::string path = write_temp(
      "spec_churn.spec",
      "trace = churn\n"
      "churn = population=200,rate=25,packets=8,flow-duration=0.5,tcp=0.8\n"
      "duration = 10\n"
      "rates = 0.1\n");
  const fsim::ExperimentSpec spec = fsim::parse_experiment_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(spec.trace, "churn");
  EXPECT_EQ(spec.churn.population, 200u);
  EXPECT_DOUBLE_EQ(spec.churn.churn_per_s, 25.0);
  EXPECT_DOUBLE_EQ(spec.churn.mean_packets, 8.0);
  EXPECT_DOUBLE_EQ(spec.churn.mean_duration_s, 0.5);
  EXPECT_DOUBLE_EQ(spec.churn.tcp_fraction, 0.8);

  // `trace = churn` must dispatch to the churn generator, not be taken
  // for a replay-file path.
  const auto source = fsim::make_trace_source(spec);
  EXPECT_NE(source->name().find("churn"), std::string::npos) << source->name();
  const auto trace = source->flows();
  EXPECT_FALSE(trace.flows.empty());

  // A typo inside the clause fails loudly.
  fsim::ExperimentSpec bad;
  EXPECT_THROW(fsim::apply_experiment_entry(bad, "churn", "populaton=10"),
               std::invalid_argument);
}

// Every checked-in spec parses: the workload suite under scenarios/ and
// the paper-figure specs under scenarios/figures/.
TEST(SpecGrammar, EveryCheckedInSpecParses) {
  namespace fs = std::filesystem;
  std::size_t parsed = 0;
  for (const char* dir : {"scenarios", "scenarios/figures"}) {
    for (const auto& entry : fs::directory_iterator(fs::path(FLOWRANK_SOURCE_DIR) / dir)) {
      if (entry.path().extension() != ".spec") continue;
      EXPECT_NO_THROW((void)fsim::parse_experiment_file(entry.path().string()))
          << entry.path();
      ++parsed;
    }
  }
  // 8 workload specs + 19 figure specs at the time of writing; a glob
  // that silently matched nothing must not pass.
  EXPECT_GE(parsed, 27u);
}

// experiment_echo emits only keys the parser accepts, spelled as the
// parser spells them: replaying a checked-in spec's echo onto a fresh
// spec reproduces the echo.
TEST(SpecGrammar, EchoReplaysToTheSameEcho) {
  namespace fs = std::filesystem;
  std::size_t replayed = 0;
  for (const char* dir : {"scenarios", "scenarios/figures"}) {
    for (const auto& entry : fs::directory_iterator(fs::path(FLOWRANK_SOURCE_DIR) / dir)) {
      if (entry.path().extension() != ".spec") continue;
      const auto echo =
          fsim::experiment_echo(fsim::parse_experiment_file(entry.path().string()));
      fsim::ExperimentSpec spec;
      try {
        for (const auto& [key, value] : echo) fsim::apply_experiment_entry(spec, key, value);
        fsim::check_mode_keys(spec);
      } catch (const std::invalid_argument& e) {
        ADD_FAILURE() << entry.path() << ": " << e.what();
        continue;
      }
      EXPECT_EQ(fsim::experiment_echo(spec), echo) << entry.path();
      ++replayed;
    }
  }
  EXPECT_GE(replayed, 28u);
}
