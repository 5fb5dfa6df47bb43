// The experiment layer: every paper figure, ablation sweep, scenario and
// estimator-augmented workload is one declarative ExperimentSpec executed
// by one engine, with rows streamed to a report::ResultSink — experiments
// are data, not binaries.
//
// The paper's evaluation is one pipeline — trace → sample → bin → rank —
// run over many workloads. An ExperimentSpec describes one workload (trace
// source, distribution family, arrival model, rate grid, bin length, tie
// policy, model, sweeps, threads/shards) parsed from a key=value file or
// CLI options, so a new workload is a new text file, not a new C++ driver.
//
// Spec format (every key doubles as a `--<key>` CLI override). '#' starts
// a comment at line start or after whitespace; a '#' embedded in a token
// (e.g. a file path) is part of the value:
//
//   name        = bursty ON/OFF arrivals
//   description = one-liner shown by flowrank_experiments --list
//   model       = mc                   # exact | mc | packet (see below)
//   trace       = synthetic            # synthetic | churn | a .frt1 path to replay
//   preset      = sprint_5tuple        # sprint_5tuple|sprint_prefix24|abilene|custom
//   beta        = 1.5                  # preset Pareto tail index
//   dist        = pareto:mean=9.6,beta=1.5   # custom preset; '|' mixes components
//   duration    = 240                  # trace seconds
//   flow-rate   = 80                   # flows/s (0 = preset default)
//   flow-rate-scale = 1.0              # multiplier on the above
//   trace-seed  = 7
//   packet-size = 500
//   epochs      = 1                    # >1 concatenates epochs back to back
//   epoch-gap   = 0                    # idle seconds between epochs
//   onoff       = on=2,off=8,on-factor=4,off-factor=0.1   # bursty arrivals
//   churn       = population=1000,rate=50,packets=16,flow-duration=1,tcp=0.9
//                                      # trace=churn knobs: bounded unique-flow
//                                      # population, slot replacements/s
//   bin         = 30                   # measurement interval seconds
//   t           = 10                   # flows to rank/detect
//   rates       = 0.01,0.1,0.5
//   runs        = 15                   # mc-model Monte-Carlo runs
//   seed        = 7                    # sampling seed
//   ties        = paper                # paper|lenient
//   definition  = 5tuple               # 5tuple|prefix24
//   threads     = 0                    # grid workers (0 = all hw)
//   shards      = 0                    # packet-model ingest shards (0 = all hw)
//
// The model axis selects the engine:
//
//   model = exact | mc | packet
//     exact  — the analytic models (quadrature ranking/detection,
//              optimal-rate and Gaussian-error grids; figs 1-11), one
//              row per grid cell, parallelized over the grid on the
//              shared exec::TaskPool. `exact-pairwise = exact-discrete`
//              switches metric=ranking cells to the integer-support
//              discrete model (Eqs. 1 and 3) backed by build-once
//              core::DiscreteModelContext sums, cached per distinct
//              (p, pmf, max-size, tail-tol) across the grid;
//     mc     — the trace-driven count-path Monte-Carlo simulation
//              (binomial thinning over per-bin counts; figs 12-16), one
//              row per (grid cell, rate, time bin);
//     packet — the production packet pipeline (stream → sampler →
//              sharded classifier → optional estimator → rank), one row
//              per (grid cell, rate, time bin).
//
//   sweep <param> = <lo>..<hi> log <count>     # log-spaced grid
//   sweep <param> = <lo>..<hi> lin <count>     # linearly spaced grid
//   sweep <param> = v1,v2,v3                   # explicit list
//
// Sweep axes form a row-major cartesian grid in declaration order (the
// CLI override is --sweep-<param>). Sweepable params: rate, t, n, beta,
// bin, duration, s1, s2 — validity depends on the model (e.g. s1/s2 are
// the exact optimal-rate/gaussian-error size grids; n is the exact-model
// population). A `sweep rate` on mc/packet replaces the `rates` list.
//
// Exact-model keys: metric = ranking|detection|optimal_rate|
// gaussian_error, n = <population>, rate = <fixed sampling rate>,
// target = <Pm,d for optimal_rate>, pairwise = gaussian|hybrid,
// counting = paper|unordered, exact-pairwise = gaussian|hybrid|
// exact-discrete, plus the exact-discrete knobs max-size = <support cap>
// and tail-tol = <pmf tail mass tolerance>.
//
// Packet-model estimator stage (closing the paper's sampled → estimated
// → ranked loop):
//   estimator = inversion | tcp_seq
//             | sample_and_hold:slots=K[,hold=H] | space_saving:slots=K
//
// Continuous-monitor keys (mode=monitor turns a model=packet spec into one
// flowrank::monitor::MonitorLoop run whose rows are periodic top-t
// snapshots with fault/shed accounting; no sweeps, one sampling rate):
//
//   mode        = monitor              # batch|monitor|aggregate
//   window      = 30                   # monitor window seconds (0 = use bin)
//   snapshot-every = 2                 # windows per emitted snapshot
//   overload    = shed                 # block|shed full-queue policy
//   ewma        = 0.3                  # smoothing weight on newest window, (0,1]
//   budget      = 100000               # sampled packets/window before shed degrades
//   watchdog-ms = 50                   # source-stall deadline ms (0 = off)
//   on-stall    = rotate               # rotate|fail
//   fault.corrupt     = 0.01           # corrupt-record fraction injected
//   fault.truncate    = 0.01           # truncated-record fraction injected
//   fault.stall-every = 32             # stall before every k-th batch
//   fault.stall-ms    = 40             # injected stall length
//   fault.burst-flows = 2000           # flash-crowd flows per burst
//   fault.burst-every = 5              # burst cadence, trace seconds
//   fault.burst-duration = 0.25        # burst width, seconds
//   fault.seed        = 99             # injection seed
//
// Multi-vantage aggregation keys (mode=aggregate turns a model=packet spec
// into one agg::run_fleet run, one row per aggregation window; no sweeps,
// one sampling rate; bin = the aggregation window):
//
//   mode        = aggregate
//   agents      = 3                    # vantage agents
//   split       = flow                 # flow (disjoint) | packet (overlapping)
//   deadline-ms = 250                  # per-window summary deadline
//   quarantine-after = 3               # consecutive bad windows -> quarantine
//   readmit-after    = 1               # clean probes -> readmission
//   summary     = table                # table|spacesaving per-agent summary
//   summary-slots    = 1024            # sketch capacity (summary=spacesaving)
//   union-capacity   = 0               # merged-union slot budget (0 = exact)
//   chan.drop        = 0.1             # summary-channel fault fractions
//   chan.corrupt     = 0.05
//   chan.delay       = 0.05
//   chan.delay-windows = 1
//   chan.duplicate   = 0.05
//   chan.outage-agent = 2              # deterministic full outage for one agent
//   chan.outage-from  = 4              # ...starting at this window
//   chan.outage-windows = 0            # ...for this many windows (0 = to end)
//   chan.seed        = 99
//
// `rate` (batch), the monitor keys and the aggregate keys are mode-family
// keys: a family key outside its family's mode is an error, in either key
// order. It fails with the unknown-key message at the key when the spec is
// already in another mode, at `mode` when an earlier key belongs to
// another mode, and in check_mode_keys when the final mode is the default
// batch one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flowrank/agg/fleet_run.hpp"
#include "flowrank/core/ranking_model.hpp"
#include "flowrank/dist/flow_size_distribution.hpp"
#include "flowrank/monitor/monitor_loop.hpp"
#include "flowrank/report/result_sink.hpp"
#include "flowrank/sim/binned_sim.hpp"
#include "flowrank/trace/fault_injection.hpp"
#include "flowrank/trace/flow_churn.hpp"
#include "flowrank/trace/trace_source.hpp"
#include "flowrank/util/cli.hpp"

namespace flowrank::sim {

/// Which execution model runs the experiment.
enum class ExperimentModel { kExact, kMc, kPacket };

/// What the exact model evaluates per grid cell.
enum class ExactMetric { kRanking, kDetection, kOptimalRate, kGaussianError };

/// One sweep axis: a named parameter and its grid values.
struct SweepAxis {
  std::string param;
  std::vector<double> values;
  std::string grammar;  ///< original grammar text, echoed into metadata
};

/// Continuous-monitor knobs (the `mode = monitor` key family). Executed
/// by flowrank::monitor::MonitorLoop through the experiment engine.
struct MonitorOptions {
  bool enabled = false;     ///< mode = monitor
  double window_s = 0.0;    ///< window seconds; 0 = use the spec's bin
  std::size_t snapshot_every = 1;
  bool shed = false;        ///< overload = shed (vs the default block)
  double ewma_alpha = 1.0;  ///< EWMA weight on the newest window, (0, 1]
  std::uint64_t window_packet_budget = 0;  ///< sampled packets per window
  std::uint32_t watchdog_ms = 0;  ///< source-stall deadline (0 = off)
  bool fail_on_stall = false;     ///< on-stall = fail (vs rotate)
  trace::FaultSpec fault;         ///< fault.* injection knobs
};

/// Multi-vantage aggregation knobs (the `mode = aggregate` key family).
/// Executed by agg::run_fleet through the experiment engine; the spec's
/// bin is the aggregation window.
struct AggregateOptions {
  bool enabled = false;  ///< mode = aggregate
  std::size_t agents = 3;
  agg::FleetSplit split = agg::FleetSplit::kFlow;
  std::uint32_t deadline_ms = 250;
  std::size_t quarantine_after = 3;
  std::size_t readmit_after = 1;
  agg::SummaryKind summary = agg::SummaryKind::kFlowTable;
  std::size_t summary_slots = 1024;
  std::size_t union_capacity = 0;
  agg::SummaryFaultSpec chan;  ///< chan.* summary-channel fault knobs
};

/// One experiment, as data. Defaults run a laptop-scale Sprint 5-tuple
/// mc experiment.
struct ExperimentSpec {
  std::string name = "scenario";
  std::string description;  ///< one-liner shown by flowrank_experiments --list
  ExperimentModel model = ExperimentModel::kMc;

  // --- trace source -------------------------------------------------------
  /// "synthetic", "churn" (bounded unique-flow population with slot
  /// turnover; see the `churn` key), or a path to an FRT1 flow-trace file
  /// to replay. A relative path in a spec file is relative to that file's
  /// directory; one given on the command line (--trace) is relative to the
  /// working directory.
  std::string trace = "synthetic";
  /// Synthetic preset: sprint_5tuple | sprint_prefix24 | abilene | custom.
  std::string preset = "sprint_5tuple";
  double beta = 1.5;       ///< preset Pareto tail index
  std::string dist;        ///< dist grammar; required for preset=custom
  double duration_s = 240.0;
  double flow_rate_per_s = 0.0;  ///< 0 = preset default
  double flow_rate_scale = 1.0;
  std::uint64_t trace_seed = 7;
  std::uint32_t packet_size_bytes = 500;
  std::size_t epochs = 1;  ///< >1: concatenated epochs (seeds trace_seed + k)
  double epoch_gap_s = 0.0;
  trace::OnOffArrivals on_off;  ///< "onoff" key enables + fills this
  /// trace=churn knobs (the "churn" key); duration/flow-rate/packet-size/
  /// trace-seed come from the shared keys above.
  trace::FlowChurnConfig churn;

  // --- measurement + metrics ---------------------------------------------
  double bin_seconds = 60.0;
  std::size_t top_t = 10;
  std::vector<double> sampling_rates{0.001, 0.01, 0.1, 0.5};
  int runs = 15;
  std::uint64_t seed = 7;
  metrics::TiePolicy tie_policy = metrics::TiePolicy::kPaper;
  packet::FlowDefinition definition = packet::FlowDefinition::kFiveTuple;

  // --- execution ----------------------------------------------------------
  std::size_t num_threads = 0;  ///< grid workers, 0 = all hw
  std::size_t num_shards = 0;   ///< packet-model shards, 0 = all hw
  MonitorOptions monitor;       ///< continuous-monitor keys (mode=monitor)
  AggregateOptions aggregate;   ///< multi-vantage keys (mode=aggregate)
  /// The mode-family keys set so far, in the order first set; each must
  /// belong to the final mode (see check_mode_keys).
  std::vector<std::string> family_keys;

  // --- exact-model knobs ---------------------------------------------------
  ExactMetric metric = ExactMetric::kRanking;
  std::int64_t exact_n = 700000;  ///< population N (the Sprint 5-tuple default)
  double exact_rate = 0.01;       ///< fixed sampling rate when rate is not swept
  double optimal_target = 1e-3;   ///< Pm,d for metric=optimal_rate
  core::PairwiseModel pairwise = core::PairwiseModel::kGaussian;
  core::PairCounting counting = core::PairCounting::kPaper;
  /// `exact-pairwise = exact-discrete`: run metric=ranking cells through
  /// the integer-support discrete model instead of the continuous
  /// quadrature (gaussian|hybrid values map onto `pairwise` above).
  bool exact_discrete = false;
  std::int64_t exact_max_size = 4096;  ///< discrete support cap (max-size)
  double exact_tail_tol = 1e-6;        ///< discrete tail tolerance (tail-tol)

  // --- packet-model estimator stage ---------------------------------------
  EstimatorStage estimator;
  std::string estimator_grammar = "none";

  // --- sweep grid ----------------------------------------------------------
  std::vector<SweepAxis> sweeps;  ///< row-major, declaration order
};

// --- spellings ----------------------------------------------------------------

/// One spelling of an enum-valued key. The parser maps `text` to `value`
/// and experiment_echo maps it back, so each table is the key's grammar.
template <typename T>
struct Spelling {
  const char* text;
  T value;
};

inline constexpr Spelling<ExperimentModel> kModelSpellings[] = {
    {"exact", ExperimentModel::kExact},
    {"mc", ExperimentModel::kMc},
    {"packet", ExperimentModel::kPacket}};
inline constexpr Spelling<ExactMetric> kMetricSpellings[] = {
    {"ranking", ExactMetric::kRanking},
    {"detection", ExactMetric::kDetection},
    {"optimal_rate", ExactMetric::kOptimalRate},
    {"gaussian_error", ExactMetric::kGaussianError}};
inline constexpr Spelling<metrics::TiePolicy> kTieSpellings[] = {
    {"paper", metrics::TiePolicy::kPaper}, {"lenient", metrics::TiePolicy::kLenient}};
inline constexpr Spelling<packet::FlowDefinition> kDefinitionSpellings[] = {
    {"5tuple", packet::FlowDefinition::kFiveTuple},
    {"prefix24", packet::FlowDefinition::kDstPrefix24}};
inline constexpr Spelling<core::PairwiseModel> kPairwiseSpellings[] = {
    {"gaussian", core::PairwiseModel::kGaussian},
    {"hybrid", core::PairwiseModel::kHybrid}};
inline constexpr Spelling<core::PairCounting> kCountingSpellings[] = {
    {"paper", core::PairCounting::kPaper}, {"unordered", core::PairCounting::kUnordered}};
/// overload: MonitorOptions::shed.
inline constexpr Spelling<bool> kOverloadSpellings[] = {{"block", false}, {"shed", true}};
/// on-stall: MonitorOptions::fail_on_stall.
inline constexpr Spelling<bool> kOnStallSpellings[] = {{"rotate", false}, {"fail", true}};
inline constexpr Spelling<agg::FleetSplit> kSplitSpellings[] = {
    {"flow", agg::FleetSplit::kFlow}, {"packet", agg::FleetSplit::kPacket}};
inline constexpr Spelling<agg::SummaryKind> kSummarySpellings[] = {
    {"table", agg::SummaryKind::kFlowTable},
    {"spacesaving", agg::SummaryKind::kSpaceSaving}};

/// The spelling of `value` in `table`.
template <typename T, std::size_t N>
[[nodiscard]] constexpr const char* spelling(const Spelling<T> (&table)[N], T value) {
  for (const auto& entry : table) {
    if (entry.value == value) return entry.text;
  }
  return "?";
}

// --- grammar -----------------------------------------------------------------

/// Parses a dist grammar string into a distribution:
///   pareto:mean=9.6,beta=1.5          (or min= instead of mean=)
///   bounded_pareto:min=4,beta=3,max=2000
///   exponential:mean=9.6[,min=1]
///   weibull:mean=9.6,shape=0.6[,min=1]
/// Components joined with '|' (each may carry weight=W, default 1) form a
/// dist::Mixture. Throws std::invalid_argument on grammar errors.
[[nodiscard]] std::shared_ptr<const dist::FlowSizeDistribution> parse_dist(
    const std::string& grammar);

/// Parses one sweep grammar ("1e-4..1e-2 log 12", "0..1 lin 5",
/// "10,30,100"). Log/lin grids pin the last value to `hi` exactly (the
/// same convention as the historical figure rate grids). Throws
/// std::invalid_argument on grammar errors.
[[nodiscard]] std::vector<double> parse_sweep_values(const std::string& grammar);

/// Parses the estimator grammar (see header comment). "none" clears the
/// stage. Throws std::invalid_argument on grammar errors.
[[nodiscard]] EstimatorStage parse_estimator(const std::string& grammar);

/// Every spec key (the `--key` override names), sorted. Sweep axes come
/// on top as `sweep <param>` / `--sweep-<param>`.
[[nodiscard]] const std::vector<std::string>& experiment_keys();

/// Applies one key=value entry onto the spec through the key table, the
/// single source of truth for the key set; files and CLI overrides both
/// route through here. Throws std::invalid_argument on an unknown key, a
/// bad value, or a mode-family key outside the spec's mode (see the
/// header comment); the unknown-key message lists the keys valid for the
/// spec's active mode.
void apply_experiment_entry(ExperimentSpec& spec, const std::string& key,
                            const std::string& value);

/// Parses a key=value spec file (`sweep <param> = <grammar>` declares an
/// axis; later declarations of the same param replace earlier ones).
/// Entry errors are rethrown as flowrank::Error(kSpec) tagged "path:line"
/// and naming the offending key; a missing file is Error(kIo). A relative
/// `trace` file resolves against the spec file's directory.
[[nodiscard]] ExperimentSpec parse_experiment_file(const std::string& path);

/// Applies CLI overrides: every spec key as `--key`, every sweep axis as
/// `--sweep-<param>`.
void apply_experiment_overrides(ExperimentSpec& spec, const util::Cli& cli);

/// Spec from CLI alone: `--spec file` (if given) then overrides.
[[nodiscard]] ExperimentSpec experiment_from_cli(const util::Cli& cli);

/// Throws std::invalid_argument with the unknown-key message, naming the
/// key, when a mode-family key the spec set (`family_keys`) does not
/// belong to its final mode. The entry parser refuses such keys once a
/// mode is set; this check covers the default batch mode, which no key
/// has to set. parse_experiment_file and run_experiment call it.
void check_mode_keys(const ExperimentSpec& spec);

/// Throws std::invalid_argument naming the sweepable parameters unless
/// `param` is one of them.
void check_sweep_param(const std::string& param);

// --- builders ------------------------------------------------------------------

/// The flow-size distribution the spec describes (preset or custom).
[[nodiscard]] std::shared_ptr<const dist::FlowSizeDistribution>
make_size_distribution(const ExperimentSpec& spec);

/// The trace source the spec describes (synthetic / churn / file replay /
/// concatenated epochs; fault-wrapped in monitor mode).
[[nodiscard]] std::shared_ptr<const trace::TraceSource> make_trace_source(
    const ExperimentSpec& spec);

/// The SimConfig the spec describes (threads resolved, 0 = all hw).
[[nodiscard]] SimConfig make_sim_config(const ExperimentSpec& spec);

/// The MonitorConfig the spec describes. Requires mode=monitor and
/// exactly one sampling rate (the monitor has one live stream, not a
/// rate grid); throws std::invalid_argument otherwise.
[[nodiscard]] monitor::MonitorConfig make_monitor_config(const ExperimentSpec& spec);

/// The FleetConfig the spec describes. Requires mode=aggregate and
/// exactly one sampling rate (each agent samples one live stream);
/// throws std::invalid_argument otherwise. The spec's bin is the
/// aggregation window.
[[nodiscard]] agg::FleetConfig make_fleet_config(const ExperimentSpec& spec);

// --- engine --------------------------------------------------------------------

/// The full canonical key = value echo of a spec (what the sink's
/// run-metadata header records): every knob, in a fixed order, sweeps
/// last.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> experiment_echo(
    const ExperimentSpec& spec);

/// The column names run_experiment emits for this spec, in order: sweep
/// axes first, then the model's fixed columns.
[[nodiscard]] std::vector<std::string> experiment_columns(const ExperimentSpec& spec);

/// Runs the experiment end to end: opens the sink (metadata + columns),
/// streams every row in deterministic grid order (exact-model cells are
/// computed concurrently on the shared TaskPool — the sink reorders), and
/// closes the sink. Returns the number of rows emitted. Throws
/// std::invalid_argument on spec/model mismatches (e.g. an s1 sweep on a
/// packet experiment) before any output is written.
std::size_t run_experiment(const ExperimentSpec& spec, report::ResultSink& sink);

}  // namespace flowrank::sim
