// Tests for the unified experiment layer: sweep/estimator grammars, spec
// files + CLI overrides, engine parity with the underlying models on all
// three model axes, estimator stages under sampling (bit-identical to
// direct estimator calls at shards {1, 4}), and the trace export that
// flowrank_experiments --export-trace performs.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/agg/fleet_run.hpp"
#include "flowrank/core/detection_model.hpp"
#include "flowrank/core/discrete_context.hpp"
#include "flowrank/core/ranking_model.hpp"
#include "flowrank/dist/discretized.hpp"
#include "flowrank/estimators/heavy_hitter_trackers.hpp"
#include "flowrank/sampler/packet_sampler.hpp"
#include "flowrank/sim/experiment.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/trace/trace_io.hpp"
#include "flowrank/trace/trace_source.hpp"
#include "flowrank/util/error.hpp"
#include "flowrank/util/rng.hpp"

namespace fe = flowrank::estimators;
namespace fp = flowrank::packet;
namespace fr = flowrank::report;
namespace fsim = flowrank::sim;
namespace ft = flowrank::trace;

namespace {

/// Captures emitted rows (as cell text) instead of writing a stream.
class CaptureSink final : public fr::ResultSink {
 public:
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::pair<std::string, std::string>> spec_echo;

 protected:
  void write_header(const std::vector<std::string>& cols,
                    const fr::RunMetadata& meta) override {
    columns = cols;
    spec_echo = meta.spec_echo;
  }
  void write_row(const fr::Row& row) override {
    std::vector<std::string> cells;
    for (const auto& value : row) cells.push_back(value.text());
    rows.push_back(std::move(cells));
  }
  void flush() override {}
  [[nodiscard]] bool stream_ok() const noexcept override { return true; }
};

std::size_t column_index(const CaptureSink& sink, const std::string& name) {
  for (std::size_t i = 0; i < sink.columns.size(); ++i) {
    if (sink.columns[i] == name) return i;
  }
  ADD_FAILURE() << "no column " << name;
  return 0;
}

std::string write_temp_spec(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream os(path);
  os << body;
  return path;
}

/// Small synthetic packet workload shared by the packet-model tests.
fsim::ExperimentSpec packet_spec() {
  fsim::ExperimentSpec spec;
  spec.name = "packet_test";
  fsim::apply_experiment_entry(spec, "model", "packet");
  fsim::apply_experiment_entry(spec, "preset", "sprint_5tuple");
  fsim::apply_experiment_entry(spec, "duration", "40");
  fsim::apply_experiment_entry(spec, "flow-rate", "200");
  fsim::apply_experiment_entry(spec, "trace-seed", "21");
  fsim::apply_experiment_entry(spec, "bin", "10");
  fsim::apply_experiment_entry(spec, "t", "5");
  fsim::apply_experiment_entry(spec, "rates", "0.2");
  fsim::apply_experiment_entry(spec, "seed", "9");
  fsim::apply_experiment_entry(spec, "shards", "1");
  return spec;
}

}  // namespace

// --- grammars --------------------------------------------------------------

TEST(SweepGrammar, LogRangePinsEndpoints) {
  const auto values = fsim::parse_sweep_values("0.001..0.5 log 10");
  ASSERT_EQ(values.size(), 10u);
  EXPECT_DOUBLE_EQ(values.front(), 0.001);
  EXPECT_DOUBLE_EQ(values.back(), 0.5);
  // Same construction as the historical paper_rate_grid: equal log steps.
  const double step = (std::log(0.5) - std::log(0.001)) / 9.0;
  EXPECT_DOUBLE_EQ(values[3], std::exp(std::log(0.001) + 3 * step));
}

TEST(SweepGrammar, LinRangeAndList) {
  const auto lin = fsim::parse_sweep_values("100..1000 lin 10");
  ASSERT_EQ(lin.size(), 10u);
  EXPECT_DOUBLE_EQ(lin[1], 200.0);
  EXPECT_DOUBLE_EQ(lin.back(), 1000.0);
  const auto list = fsim::parse_sweep_values("3,2.5,2,1.5,1.2");
  ASSERT_EQ(list.size(), 5u);
  EXPECT_DOUBLE_EQ(list.front(), 3.0);
  EXPECT_DOUBLE_EQ(list.back(), 1.2);  // descending lists stay as declared
}

TEST(SweepGrammar, Rejections) {
  EXPECT_THROW(fsim::parse_sweep_values("1..10 log 1"), std::invalid_argument);
  EXPECT_THROW(fsim::parse_sweep_values("10..1 log 4"), std::invalid_argument);
  EXPECT_THROW(fsim::parse_sweep_values("0..10 log 4"), std::invalid_argument);
  EXPECT_THROW(fsim::parse_sweep_values("1..10 geom 4"), std::invalid_argument);
  EXPECT_THROW(fsim::parse_sweep_values("1..10 log 4 junk"), std::invalid_argument);
  EXPECT_THROW(fsim::parse_sweep_values(""), std::invalid_argument);
}

TEST(EstimatorGrammar, ParsesAllKinds) {
  EXPECT_EQ(fsim::parse_estimator("none").kind, fsim::EstimatorStage::Kind::kNone);
  EXPECT_EQ(fsim::parse_estimator("inversion").kind,
            fsim::EstimatorStage::Kind::kInversion);
  EXPECT_EQ(fsim::parse_estimator("tcp_seq").kind,
            fsim::EstimatorStage::Kind::kTcpSeq);
  const auto sah = fsim::parse_estimator("sample_and_hold:slots=64,hold=0.05");
  EXPECT_EQ(sah.kind, fsim::EstimatorStage::Kind::kSampleAndHold);
  EXPECT_EQ(sah.slots, 64u);
  EXPECT_DOUBLE_EQ(sah.hold_probability, 0.05);
  const auto ssv = fsim::parse_estimator("space_saving:slots=32");
  EXPECT_EQ(ssv.kind, fsim::EstimatorStage::Kind::kSpaceSaving);
  EXPECT_EQ(ssv.slots, 32u);
}

TEST(EstimatorGrammar, Rejections) {
  EXPECT_THROW((void)fsim::parse_estimator("count_min:slots=4"),
               std::invalid_argument);
  EXPECT_THROW((void)fsim::parse_estimator("space_saving:slots=0"),
               std::invalid_argument);
  EXPECT_THROW((void)fsim::parse_estimator("space_saving:slots=-1"),
               std::invalid_argument);
  EXPECT_THROW((void)fsim::parse_estimator("space_saving:slots=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)fsim::parse_estimator("sample_and_hold:slots=-8"),
               std::invalid_argument);
  EXPECT_THROW((void)fsim::parse_estimator("space_saving:bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)fsim::parse_estimator("sample_and_hold:hold=2"),
               std::invalid_argument);
}

// --- spec files + overrides ------------------------------------------------

TEST(ExperimentSpecFile, ParsesModelSweepsAndScenarioKeys) {
  const std::string path = write_temp_spec("exp_parse.spec",
                                           "name = parse test\n"
                                           "description = a description\n"
                                           "model = exact\n"
                                           "metric = detection\n"
                                           "n = 50000\n"
                                           "preset = sprint_prefix24\n"
                                           "beta = 1.3   # scenario key\n"
                                           "sweep rate = 0.01..0.5 log 4\n"
                                           "sweep t = 1,5\n");
  const auto spec = fsim::parse_experiment_file(path);
  EXPECT_EQ(spec.name, "parse test");
  EXPECT_EQ(spec.description, "a description");
  EXPECT_EQ(spec.model, fsim::ExperimentModel::kExact);
  EXPECT_EQ(spec.metric, fsim::ExactMetric::kDetection);
  EXPECT_EQ(spec.exact_n, 50000);
  EXPECT_EQ(spec.preset, "sprint_prefix24");
  EXPECT_DOUBLE_EQ(spec.beta, 1.3);
  ASSERT_EQ(spec.sweeps.size(), 2u);
  EXPECT_EQ(spec.sweeps[0].param, "rate");
  EXPECT_EQ(spec.sweeps[0].values.size(), 4u);
  EXPECT_EQ(spec.sweeps[1].param, "t");
  std::remove(path.c_str());
}

TEST(ExperimentSpecFile, UnknownKeysAndParamsThrow) {
  const std::string bad_key = write_temp_spec("exp_bad_key.spec", "modle = exact\n");
  EXPECT_THROW((void)fsim::parse_experiment_file(bad_key), std::runtime_error);
  const std::string bad_sweep =
      write_temp_spec("exp_bad_sweep.spec", "sweep rats = 1,2\n");
  EXPECT_THROW((void)fsim::parse_experiment_file(bad_sweep), std::runtime_error);
  std::remove(bad_key.c_str());
  std::remove(bad_sweep.c_str());
}

TEST(ExperimentSpecFile, ParsesExactDiscreteKeys) {
  const std::string path = write_temp_spec("exp_discrete.spec",
                                           "model = exact\n"
                                           "metric = ranking\n"
                                           "exact-pairwise = exact-discrete\n"
                                           "max-size = 600\n"
                                           "tail-tol = 1e-4\n"
                                           "n = 2000\n"
                                           "rate = 0.2\n"
                                           "sweep t = 5,10,25\n");
  const auto spec = fsim::parse_experiment_file(path);
  EXPECT_TRUE(spec.exact_discrete);
  EXPECT_EQ(spec.exact_max_size, 600);
  EXPECT_DOUBLE_EQ(spec.exact_tail_tol, 1e-4);
  std::remove(path.c_str());

  // `window` has one meaning, the monitor's window seconds; an exact spec
  // that sets it is refused, not run with the key ignored.
  const std::string windowed = write_temp_spec("exp_discrete_window.spec",
                                               "model = exact\n"
                                               "exact-pairwise = exact-discrete\n"
                                               "window = 0.001\n");
  try {
    (void)fsim::parse_experiment_file(windowed);
    FAIL() << "expected flowrank::Error(kSpec)";
  } catch (const flowrank::Error& e) {
    EXPECT_EQ(e.category(), flowrank::ErrorCategory::kSpec);
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'window'"), std::string::npos) << what;
  }
  std::remove(windowed.c_str());

  // The other two exact-pairwise flavors route to the continuous model.
  fsim::ExperimentSpec flavors;
  fsim::apply_experiment_entry(flavors, "exact-pairwise", "hybrid");
  EXPECT_FALSE(flavors.exact_discrete);
  EXPECT_EQ(flavors.pairwise, flowrank::core::PairwiseModel::kHybrid);
  fsim::apply_experiment_entry(flavors, "exact-pairwise", "gaussian");
  EXPECT_EQ(flavors.pairwise, flowrank::core::PairwiseModel::kGaussian);
  EXPECT_THROW(fsim::apply_experiment_entry(flavors, "exact-pairwise", "exact"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(flavors, "max-size", "1"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(flavors, "max-size", "2.5"),
               std::invalid_argument);
  EXPECT_THROW(fsim::apply_experiment_entry(flavors, "tail-tol", "0"),
               std::invalid_argument);
}

TEST(ExperimentSpecFile, UnknownKeyErrorListsExperimentKeys) {
  fsim::ExperimentSpec spec;
  try {
    fsim::apply_experiment_entry(spec, "max-sizes", "600");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("unknown key"), std::string::npos) << what;
    // The augmented vocabulary must name the exact-discrete knobs.
    for (const char* key : {"exact-pairwise", "max-size", "tail-tol"}) {
      EXPECT_NE(what.find(key), std::string::npos) << "missing " << key << ": " << what;
    }
    // `window` is a monitor key: batch mode does not list it.
    EXPECT_EQ(what.find("window"), std::string::npos) << what;
  }
}

// `window` is the monitor's, whatever the key order: before `mode =
// monitor` it is the monitor's window; after another mode it is refused
// at the key; under the default batch mode it is refused by the parser
// and by run_experiment alike.
TEST(ExperimentSpecFile, WindowIsMonitorOnly) {
  fsim::ExperimentSpec monitor;
  fsim::apply_experiment_entry(monitor, "window", "30");
  fsim::apply_experiment_entry(monitor, "mode", "monitor");
  EXPECT_NO_THROW(fsim::check_mode_keys(monitor));
  EXPECT_DOUBLE_EQ(monitor.monitor.window_s, 30.0);

  fsim::ExperimentSpec aggregate;
  fsim::apply_experiment_entry(aggregate, "mode", "aggregate");
  EXPECT_THROW(fsim::apply_experiment_entry(aggregate, "window", "30"),
               std::invalid_argument);

  const std::string path = write_temp_spec("exp_window_first.spec",
                                           "window = 30\n"
                                           "mode = monitor\n");
  EXPECT_DOUBLE_EQ(fsim::parse_experiment_file(path).monitor.window_s, 30.0);
  std::remove(path.c_str());

  fsim::ExperimentSpec batch;
  batch.model = fsim::ExperimentModel::kExact;
  fsim::apply_experiment_entry(batch, "window", "0.001");
  CaptureSink sink;
  EXPECT_THROW((void)fsim::run_experiment(batch, sink), std::invalid_argument);
  EXPECT_TRUE(sink.columns.empty());
}

TEST(ExperimentSpecFile, CliOverridesReplaceAxes) {
  const std::string path = write_temp_spec("exp_override.spec",
                                           "model = exact\n"
                                           "metric = ranking\n"
                                           "n = 1000\n"
                                           "sweep rate = 0.01,0.1\n"
                                           "sweep t = 1,2\n");
  const char* argv[] = {"prog", "--spec", path.c_str(), "--sweep-rate",
                        "0.2,0.3,0.4", "--n", "2000"};
  const flowrank::util::Cli cli(7, argv);
  const auto spec = fsim::experiment_from_cli(cli);
  EXPECT_EQ(spec.exact_n, 2000);
  ASSERT_EQ(spec.sweeps.size(), 2u);
  EXPECT_EQ(spec.sweeps[0].param, "rate");  // replaced in place, order kept
  EXPECT_EQ(spec.sweeps[0].values.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.sweeps[0].values[0], 0.2);
  std::remove(path.c_str());
}

TEST(ExperimentSpec, ModelAxisValidation) {
  fsim::ExperimentSpec spec;
  fsim::apply_experiment_entry(spec, "model", "packet");
  fsim::apply_experiment_entry(spec, "sweep s1", "1,2");
  CaptureSink sink;
  EXPECT_THROW(fsim::run_experiment(spec, sink), std::invalid_argument);

  fsim::ExperimentSpec est;
  fsim::apply_experiment_entry(est, "model", "mc");
  fsim::apply_experiment_entry(est, "estimator", "inversion");
  CaptureSink sink2;
  EXPECT_THROW(fsim::run_experiment(est, sink2), std::invalid_argument);

  fsim::ExperimentSpec opt;
  fsim::apply_experiment_entry(opt, "model", "exact");
  fsim::apply_experiment_entry(opt, "metric", "optimal_rate");
  CaptureSink sink3;  // optimal_rate needs both s1 and s2 sweeps
  EXPECT_THROW(fsim::run_experiment(opt, sink3), std::invalid_argument);
}

// --- engine parity with the underlying models ------------------------------

TEST(ExperimentEngine, ExactRankingMatchesDirectModelCalls) {
  fsim::ExperimentSpec spec;
  fsim::apply_experiment_entry(spec, "model", "exact");
  fsim::apply_experiment_entry(spec, "metric", "ranking");
  fsim::apply_experiment_entry(spec, "n", "20000");
  fsim::apply_experiment_entry(spec, "preset", "sprint_5tuple");
  fsim::apply_experiment_entry(spec, "beta", "1.5");
  fsim::apply_experiment_entry(spec, "sweep rate", "0.01,0.1");
  fsim::apply_experiment_entry(spec, "sweep t", "1,5");
  CaptureSink sink;
  EXPECT_EQ(fsim::run_experiment(spec, sink), 4u);
  ASSERT_EQ(sink.rows.size(), 4u);

  const auto metric_col = column_index(sink, "metric");
  std::size_t row = 0;
  for (const double rate : {0.01, 0.1}) {
    for (const std::int64_t t : {1, 5}) {  // row-major: rate outer, t inner
      flowrank::core::RankingModelConfig cfg;
      cfg.n = 20000;
      cfg.t = t;
      cfg.p = rate;
      cfg.size_dist = fsim::make_size_distribution(spec);
      const auto expected = flowrank::core::evaluate_ranking_model(cfg);
      EXPECT_EQ(sink.rows[row][metric_col], fr::Value(expected.metric).text())
          << "row " << row;
      ++row;
    }
  }
}

// A t-sweep under exact-pairwise=exact-discrete: one shared context serves
// all cells (bit-identical to a direct context evaluation), and the run
// metadata documents the sharing.
TEST(ExperimentEngine, ExactDiscreteMatchesContextAndReportsReuse) {
  fsim::ExperimentSpec spec;
  fsim::apply_experiment_entry(spec, "model", "exact");
  fsim::apply_experiment_entry(spec, "metric", "ranking");
  fsim::apply_experiment_entry(spec, "exact-pairwise", "exact-discrete");
  fsim::apply_experiment_entry(spec, "max-size", "600");
  fsim::apply_experiment_entry(spec, "tail-tol", "1e-4");
  fsim::apply_experiment_entry(spec, "n", "2000");
  fsim::apply_experiment_entry(spec, "preset", "sprint_5tuple");
  fsim::apply_experiment_entry(spec, "beta", "2.5");
  fsim::apply_experiment_entry(spec, "rate", "0.2");
  fsim::apply_experiment_entry(spec, "sweep t", "5,10,25");
  CaptureSink sink;
  EXPECT_EQ(fsim::run_experiment(spec, sink), 3u);
  ASSERT_EQ(sink.rows.size(), 3u);

  flowrank::core::DiscreteContextConfig cfg;
  cfg.p = 0.2;
  cfg.size_pmf =
      std::make_shared<flowrank::dist::Discretized>(fsim::make_size_distribution(spec));
  cfg.max_size = 600;
  cfg.tail_tolerance = 1e-4;
  const flowrank::core::DiscreteModelContext context(cfg);
  const auto pbar_col = column_index(sink, "mean_pair_misranking");
  const auto metric_col = column_index(sink, "metric");
  const auto pairs_col = column_index(sink, "pair_count");
  std::size_t row = 0;
  for (const std::int64_t t : {5, 10, 25}) {
    const auto expected = context.evaluate(2000, t);
    EXPECT_EQ(sink.rows[row][pbar_col],
              fr::Value(expected.mean_pair_misranking).text())
        << "row " << row;
    EXPECT_EQ(sink.rows[row][metric_col], fr::Value(expected.metric).text())
        << "row " << row;
    const double pairs = 0.5 * (2.0 * 2000 - t - 1) * t;
    EXPECT_EQ(sink.rows[row][pairs_col], fr::Value(pairs).text()) << "row " << row;
    ++row;
  }

  // One context built, three cells served.
  bool found = false;
  for (const auto& [key, value] : sink.spec_echo) {
    if (key == "exact-discrete-contexts") {
      found = true;
      EXPECT_EQ(value, "built=1,cells=3,reused=2");
    }
  }
  EXPECT_TRUE(found) << "run metadata must report context reuse";

  // The guard: exact-discrete is a ranking-model axis.
  fsim::ExperimentSpec bad = spec;
  fsim::apply_experiment_entry(bad, "metric", "detection");
  CaptureSink sink2;
  EXPECT_THROW(fsim::run_experiment(bad, sink2), std::invalid_argument);
}

TEST(ExperimentEngine, McMatchesRunBinnedSimulation) {
  fsim::ExperimentSpec spec;
  fsim::apply_experiment_entry(spec, "model", "mc");
  fsim::apply_experiment_entry(spec, "preset", "sprint_5tuple");
  fsim::apply_experiment_entry(spec, "duration", "60");
  fsim::apply_experiment_entry(spec, "flow-rate", "300");
  fsim::apply_experiment_entry(spec, "trace-seed", "21");
  fsim::apply_experiment_entry(spec, "bin", "10");
  fsim::apply_experiment_entry(spec, "t", "5");
  fsim::apply_experiment_entry(spec, "rates", "0.01,0.1");
  fsim::apply_experiment_entry(spec, "runs", "5");
  fsim::apply_experiment_entry(spec, "seed", "3");
  fsim::apply_experiment_entry(spec, "threads", "1");
  CaptureSink sink;
  fsim::run_experiment(spec, sink);

  const auto trace = fsim::make_trace_source(spec)->flows();
  const auto direct = fsim::run_binned_simulation(trace, fsim::make_sim_config(spec));
  ASSERT_EQ(sink.rows.size(), direct.series.size() * direct.series[0].bins.size());
  const auto rate_col = column_index(sink, "rate");
  const auto mean_col = column_index(sink, "ranking_mean");
  const auto flows_col = column_index(sink, "flows");
  std::size_t row = 0;
  for (const auto& series : direct.series) {
    for (const auto& bin : series.bins) {
      EXPECT_EQ(sink.rows[row][rate_col], fr::Value(series.sampling_rate).text());
      EXPECT_EQ(sink.rows[row][flows_col],
                fr::Value(std::uint64_t{bin.flows_in_bin}).text());
      EXPECT_EQ(sink.rows[row][mean_col], fr::Value(bin.ranking.mean()).text());
      ++row;
    }
  }
}

TEST(ExperimentEngine, PacketWithoutEstimatorMatchesRunPacketLevelOnce) {
  const auto spec = packet_spec();
  CaptureSink sink;
  fsim::run_experiment(spec, sink);

  const auto trace = fsim::make_trace_source(spec)->flows();
  const auto direct = fsim::run_packet_level_once(trace, 0.2,
                                                  fsim::make_sim_config(spec),
                                                  spec.seed, 1);
  ASSERT_EQ(sink.rows.size(), direct.size());
  const auto ranking_col = column_index(sink, "ranking_swapped");
  for (std::size_t b = 0; b < direct.size(); ++b) {
    EXPECT_EQ(sink.rows[b][ranking_col],
              fr::Value(direct[b].ranking_swapped).text());
  }
}

// --- estimator stages under sampling ---------------------------------------

// The inversion estimator is a monotone transform of the sampled counts,
// so its rank metrics must match the raw-count pipeline exactly.
TEST(EstimatorStage, InversionMatchesRawCountMetrics) {
  auto spec = packet_spec();
  const auto trace = fsim::make_trace_source(spec)->flows();
  const auto config = fsim::make_sim_config(spec);
  const auto raw = fsim::run_packet_level_once(trace, 0.2, config, spec.seed, 1);
  fsim::EstimatorStage inversion;
  inversion.kind = fsim::EstimatorStage::Kind::kInversion;
  const auto estimated = fsim::run_packet_level_estimated(trace, 0.2, config,
                                                          spec.seed, 1, inversion);
  ASSERT_EQ(raw.size(), estimated.size());
  for (std::size_t b = 0; b < raw.size(); ++b) {
    EXPECT_DOUBLE_EQ(raw[b].ranking_swapped, estimated[b].metrics.ranking_swapped);
    EXPECT_DOUBLE_EQ(raw[b].detection_swapped,
                     estimated[b].metrics.detection_swapped);
    EXPECT_DOUBLE_EQ(raw[b].top_set_recall, estimated[b].metrics.top_set_recall);
  }
}

// Trackers fed through the experiment pipeline agree with direct calls
// on the same sampled stream — bit-identical estimates, at shards 1 and 4.
TEST(EstimatorStage, TrackersMatchDirectCallsAtAnyShardCount) {
  const auto base = packet_spec();
  const auto trace = fsim::make_trace_source(base)->flows();
  const auto config = fsim::make_sim_config(base);
  const double rate = 0.2;
  const std::uint64_t run_seed = base.seed;
  const std::size_t total_bins = 4;  // 40 s / 10 s
  const std::int64_t bin_ns = 10'000'000'000;

  // Direct reference: replay the identical sampled stream (same sampler,
  // same seed, same batching) into per-bin trackers.
  flowrank::sampler::BernoulliSampler bernoulli(rate, run_seed);
  ft::PacketStream stream(trace);
  std::vector<fp::PacketRecord> batch, selected;
  std::vector<std::unique_ptr<fe::SampleAndHold>> sah(total_bins);
  std::vector<std::unique_ptr<fe::SpaceSavingTracker>> ssv(total_bins);
  while (stream.next_batch(batch, 4096) > 0) {
    bernoulli.select_into(batch, selected);
    for (const auto& pkt : selected) {
      const auto bin = std::min(
          static_cast<std::size_t>(pkt.timestamp_ns / bin_ns), total_bins - 1);
      const auto key = fp::make_flow_key(pkt.tuple, config.definition);
      if (!sah[bin]) {
        sah[bin] = std::make_unique<fe::SampleAndHold>(
            0.1, 64, flowrank::util::mix_stream(run_seed, bin));
      }
      if (!ssv[bin]) ssv[bin] = std::make_unique<fe::SpaceSavingTracker>(32);
      sah[bin]->offer(key);
      ssv[bin]->offer(key);
    }
  }

  for (const bool use_sah : {true, false}) {
    fsim::EstimatorStage stage;
    stage.kind = use_sah ? fsim::EstimatorStage::Kind::kSampleAndHold
                         : fsim::EstimatorStage::Kind::kSpaceSaving;
    stage.slots = use_sah ? 64 : 32;
    stage.hold_probability = 0.1;

    std::vector<fsim::PacketBinResult> shard_results[2];
    std::size_t idx = 0;
    for (const std::size_t shards : {1u, 4u}) {
      shard_results[idx++] = fsim::run_packet_level_estimated(
          trace, rate, config, run_seed, shards, stage, /*collect_estimates=*/true);
    }
    ASSERT_EQ(shard_results[0].size(), shard_results[1].size());

    for (std::size_t b = 0; b < shard_results[0].size(); ++b) {
      // Shard bit-identity: every estimate and metric equal at 1 vs 4.
      ASSERT_EQ(shard_results[0][b].estimates.size(),
                shard_results[1][b].estimates.size());
      for (std::size_t i = 0; i < shard_results[0][b].estimates.size(); ++i) {
        EXPECT_EQ(shard_results[0][b].estimates[i].first,
                  shard_results[1][b].estimates[i].first);
        EXPECT_EQ(shard_results[0][b].estimates[i].second,
                  shard_results[1][b].estimates[i].second);
      }
      EXPECT_DOUBLE_EQ(shard_results[0][b].metrics.ranking_swapped,
                       shard_results[1][b].metrics.ranking_swapped);

      // Direct-call bit-identity: the engine's per-flow estimates equal
      // the reference trackers' (inverted by the sampling rate).
      std::map<fp::FlowKey, double> reference;
      if (use_sah) {
        if (sah[b]) {
          for (const auto& f : sah[b]->flows()) {
            reference[f.key] = f.estimated_packets / rate;
          }
        }
      } else {
        if (ssv[b]) {
          for (const auto& f : ssv[b]->flows()) {
            reference[f.key] = f.estimated_packets / rate;
          }
        }
      }
      std::size_t tracked_seen = 0;
      for (const auto& [key, estimate] : shard_results[0][b].estimates) {
        const auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_EQ(estimate, 0.0);  // untracked flows rank as missed
        } else {
          EXPECT_EQ(estimate, it->second);  // bit-identical counts
          ++tracked_seen;
        }
      }
      EXPECT_EQ(tracked_seen, reference.size());
    }
  }
}

// Rank-metrics smoke test for the remaining estimator kinds: the
// estimated pipeline runs end to end and produces sane recall.
TEST(EstimatorStage, TcpSeqSmoke) {
  const auto spec = packet_spec();
  const auto trace = fsim::make_trace_source(spec)->flows();
  fsim::EstimatorStage stage;
  stage.kind = fsim::EstimatorStage::Kind::kTcpSeq;
  const auto bins = fsim::run_packet_level_estimated(
      trace, 0.2, fsim::make_sim_config(spec), spec.seed, 1, stage);
  ASSERT_FALSE(bins.empty());
  for (const auto& bin : bins) {
    if (bin.flows_in_bin < 5) continue;
    EXPECT_GE(bin.metrics.top_set_recall, 0.0);
    EXPECT_LE(bin.metrics.top_set_recall, 1.0);
    EXPECT_GT(bin.metrics.ranking_pairs, 0.0);
  }
}

// --- trace export (flowrank_experiments --export-trace) ---------------------

TEST(TraceExport, ExportTraceRoundTrips) {
  fsim::ExperimentSpec spec;
  fsim::apply_experiment_entry(spec, "preset", "sprint_5tuple");
  fsim::apply_experiment_entry(spec, "duration", "20");
  fsim::apply_experiment_entry(spec, "flow-rate", "50");
  fsim::apply_experiment_entry(spec, "trace-seed", "5");
  const std::string path = ::testing::TempDir() + "export_regression.frt1";
  const auto synthetic = fsim::make_trace_source(spec)->flows();
  ft::save_flow_records(path, synthetic.flows);
  EXPECT_GT(synthetic.flows.size(), 0u);

  // The exported file replays through the file trace source with the
  // same flow population the synthetic source generated.
  const auto loaded = ft::load_flow_records(path);
  ASSERT_EQ(loaded.size(), synthetic.flows.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].packets, synthetic.flows[i].packets);
  }

  fsim::ExperimentSpec replay;
  fsim::apply_experiment_entry(replay, "trace", path);
  const auto replayed = fsim::make_trace_source(replay)->flows();
  EXPECT_EQ(replayed.flows.size(), synthetic.flows.size());
  EXPECT_EQ(replayed.total_packets(), synthetic.total_packets());
  std::remove(path.c_str());
}

// --- mode = aggregate through the experiment engine -------------------------

TEST(AggregateExperiment, EmitsOneDegradedCoverageRowPerWindow) {
  fsim::ExperimentSpec spec;
  spec.name = "aggregate_test";
  fsim::apply_experiment_entry(spec, "model", "packet");
  fsim::apply_experiment_entry(spec, "mode", "aggregate");
  fsim::apply_experiment_entry(spec, "agents", "3");
  fsim::apply_experiment_entry(spec, "preset", "sprint_5tuple");
  fsim::apply_experiment_entry(spec, "duration", "20");
  fsim::apply_experiment_entry(spec, "flow-rate", "100");
  fsim::apply_experiment_entry(spec, "trace-seed", "33");
  fsim::apply_experiment_entry(spec, "bin", "5");
  fsim::apply_experiment_entry(spec, "t", "5");
  fsim::apply_experiment_entry(spec, "rates", "1.0");
  fsim::apply_experiment_entry(spec, "seed", "4");
  fsim::apply_experiment_entry(spec, "shards", "1");

  CaptureSink sink;
  const std::size_t rows = fsim::run_experiment(spec, sink);

  EXPECT_EQ(sink.columns, flowrank::agg::window_columns());
  EXPECT_EQ(sink.columns, fsim::experiment_columns(spec));
  ASSERT_EQ(rows, 4u);  // 20 s / 5 s windows
  ASSERT_EQ(sink.rows.size(), rows);

  // The engine ran the same fleet make_fleet_config() describes.
  const auto trace = fsim::make_trace_source(spec)->flows();
  std::vector<fr::Row> direct_rows;
  (void)flowrank::agg::run_fleet(
      trace, fsim::make_fleet_config(spec),
      [&](const flowrank::agg::MergedWindow& window) {
        direct_rows.push_back(flowrank::agg::window_row(window));
      });
  ASSERT_EQ(direct_rows.size(), sink.rows.size());
  for (std::size_t r = 0; r < direct_rows.size(); ++r) {
    ASSERT_EQ(direct_rows[r].size(), sink.rows[r].size());
    for (std::size_t c = 0; c < direct_rows[r].size(); ++c) {
      EXPECT_EQ(sink.rows[r][c], direct_rows[r][c].text());
    }
  }

  // Fault-free full-rate fleet: full coverage on every row.
  const auto coverage_col = column_index(sink, "coverage_fraction");
  const auto window_col = column_index(sink, "window");
  for (std::size_t r = 0; r < sink.rows.size(); ++r) {
    EXPECT_EQ(sink.rows[r][window_col], fr::Value(std::uint64_t(r)).text());
    EXPECT_EQ(sink.rows[r][coverage_col], fr::Value(1.0).text());
  }
}

TEST(AggregateExperiment, RejectsIncompatibleAxes) {
  const auto base = [] {
    fsim::ExperimentSpec spec;
    fsim::apply_experiment_entry(spec, "model", "packet");
    fsim::apply_experiment_entry(spec, "mode", "aggregate");
    fsim::apply_experiment_entry(spec, "rates", "0.5");
    return spec;
  };

  CaptureSink sink;
  {
    auto spec = base();
    fsim::apply_experiment_entry(spec, "model", "exact");
    EXPECT_THROW((void)fsim::run_experiment(spec, sink), std::invalid_argument);
  }
  {
    auto spec = base();
    fsim::SweepAxis axis;
    axis.param = "beta";
    axis.values = {1.2, 1.5};
    spec.sweeps.push_back(axis);
    EXPECT_THROW((void)fsim::run_experiment(spec, sink), std::invalid_argument);
  }
  {
    auto spec = base();
    fsim::apply_experiment_entry(spec, "estimator", "inversion");
    EXPECT_THROW((void)fsim::run_experiment(spec, sink), std::invalid_argument);
  }
}
