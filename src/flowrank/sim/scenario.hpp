// Declarative scenario specs: the workload layer.
//
// The paper's evaluation is one pipeline — trace → sample → bin → rank —
// run over many workloads. A ScenarioSpec describes one workload as data
// (trace source, distribution family, arrival model, rate grid, bin
// length, tie policy, execution path, threads/shards) parsed from a
// key=value file or CLI options, so a new scenario is a new text file,
// not a new C++ driver. The fig12–16 drivers, the examples and the
// scenario suite under scenarios/ all build on this layer.
//
// Spec format (same keys as `--<key>` CLI overrides). '#' starts a
// comment at line start or after whitespace; a '#' embedded in a token
// (e.g. a file path) is part of the value:
//
//   name        = bursty ON/OFF arrivals
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
//   runs        = 15                   # count-path Monte-Carlo runs
//   seed        = 7                    # sampling seed
//   ties        = paper                # paper|lenient
//   definition  = 5tuple               # 5tuple|prefix24
//   path        = count                # count|packet
//   threads     = 0                    # count-path grid workers (0 = all hw)
//   shards      = 0                    # packet-path ingest shards (0 = all hw)
//
// Continuous-monitor keys (mode=monitor runs the spec through
// flowrank::monitor::MonitorLoop via the experiment engine; requires
// path=packet semantics and exactly one sampling rate):
//
//   mode        = monitor              # batch|monitor
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
// Multi-vantage aggregation keys (mode=aggregate runs the spec through
// agg::run_fleet via the experiment engine; requires path=packet
// semantics and exactly one sampling rate; bin = the aggregation window):
//
//   mode        = aggregate            # batch|monitor|aggregate
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
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "flowrank/agg/fleet_run.hpp"
#include "flowrank/dist/flow_size_distribution.hpp"
#include "flowrank/monitor/monitor_loop.hpp"
#include "flowrank/sim/binned_sim.hpp"
#include "flowrank/trace/fault_injection.hpp"
#include "flowrank/trace/flow_churn.hpp"
#include "flowrank/trace/trace_source.hpp"
#include "flowrank/util/cli.hpp"

namespace flowrank::sim {

/// Which pipeline executes the scenario: the count path (per-bin counts +
/// binomial thinning, Monte-Carlo over runs) or the packet path (full
/// packet stream through sampler + sharded classifier, one pass).
enum class ExecutionPath { kCount, kPacket };

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

/// One workload, as data. Defaults reproduce a laptop-scale Sprint
/// 5-tuple run.
struct ScenarioSpec {
  std::string name = "scenario";

  // --- trace source -------------------------------------------------------
  /// "synthetic", "churn" (bounded unique-flow population with slot
  /// turnover; see the `churn` key), or a path to an FRT1 flow-trace file
  /// to replay.
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
  ExecutionPath path = ExecutionPath::kCount;
  std::size_t num_threads = 0;  ///< count-path grid workers, 0 = all hw
  std::size_t num_shards = 0;   ///< packet-path shards, 0 = all hw
  MonitorOptions monitor;       ///< continuous-monitor keys (mode=monitor)
  AggregateOptions aggregate;   ///< multi-vantage keys (mode=aggregate)
};

/// Parses a dist grammar string into a distribution:
///   pareto:mean=9.6,beta=1.5          (or min= instead of mean=)
///   bounded_pareto:min=4,beta=3,max=2000
///   exponential:mean=9.6[,min=1]
///   weibull:mean=9.6,shape=0.6[,min=1]
/// Components joined with '|' (each may carry weight=W, default 1) form a
/// dist::Mixture. Throws std::invalid_argument on grammar errors.
[[nodiscard]] std::shared_ptr<const dist::FlowSizeDistribution> parse_dist(
    const std::string& grammar);

/// Parses a key=value spec file line by line, invoking `entry(key, value)`
/// per entry. Handles '#' comments (at line start or after whitespace; a
/// '#' embedded in a token is part of the value) and rethrows entry
/// errors as flowrank::Error(kSpec) tagged "path:line" and naming the
/// offending key. Shared by the scenario and experiment
/// (sim/experiment.hpp) parsers.
void parse_spec_file(
    const std::string& path,
    const std::function<void(const std::string&, const std::string&)>& entry);

/// Parses a key=value scenario file. Unknown keys throw (typos in
/// experiment configs fail loudly, matching util::Cli).
[[nodiscard]] ScenarioSpec parse_scenario_file(const std::string& path);

/// Every valid spec key (the `--key` override names), sorted.
[[nodiscard]] const std::vector<std::string>& scenario_keys();

/// Applies one key=value entry onto the spec — the single source of truth
/// for the scenario key set. Files, CLI overrides and the experiment
/// layer's spec grammar (sim/experiment.hpp) all route through here.
/// Throws std::invalid_argument on an unknown key or a bad value.
void apply_scenario_entry(ScenarioSpec& spec, const std::string& key,
                          const std::string& value);

/// Applies `--key value` CLI overrides for every spec key onto `spec`.
void apply_scenario_overrides(ScenarioSpec& spec, const util::Cli& cli);

/// Spec from CLI alone: `--scenario file` (if given) then overrides.
[[nodiscard]] ScenarioSpec scenario_from_cli(const util::Cli& cli);

/// The flow-size distribution the spec describes (preset or custom).
[[nodiscard]] std::shared_ptr<const dist::FlowSizeDistribution>
make_size_distribution(const ScenarioSpec& spec);

/// The trace source the spec describes (synthetic / file replay /
/// concatenated epochs).
[[nodiscard]] std::shared_ptr<const trace::TraceSource> make_trace_source(
    const ScenarioSpec& spec);

/// The SimConfig the spec describes (threads resolved, 0 = all hw).
[[nodiscard]] SimConfig make_sim_config(const ScenarioSpec& spec);

/// The MonitorConfig the spec describes. Requires mode=monitor and
/// exactly one sampling rate (the monitor has one live stream, not a
/// rate grid); throws std::invalid_argument otherwise.
[[nodiscard]] monitor::MonitorConfig make_monitor_config(const ScenarioSpec& spec);

/// The FleetConfig the spec describes. Requires mode=aggregate and
/// exactly one sampling rate (each agent samples one live stream);
/// throws std::invalid_argument otherwise. The spec's bin is the
/// aggregation window.
[[nodiscard]] agg::FleetConfig make_fleet_config(const ScenarioSpec& spec);

/// A scenario's outputs: the count path fills `count`, the packet path
/// fills `packet` (one metrics series per sampling rate).
struct ScenarioResult {
  ScenarioSpec spec;
  std::string source_name;
  std::size_t flow_count = 0;
  std::uint64_t packet_count = 0;
  double duration_s = 0.0;  ///< materialized trace length (all epochs)
  SimResult count;
  std::vector<std::vector<metrics::RankMetricsResult>> packet;
};

/// Materializes the trace and runs the scenario end to end.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Materializes the spec's trace source and writes the flow records as an
/// FRT1 file (the scenario_runner --export-trace path). Returns the
/// number of flows written. Throws on I/O failure.
std::size_t export_scenario_trace(const ScenarioSpec& spec, const std::string& path);

/// Human-readable report: trace provenance + per-rate per-bin tables.
void print_scenario_report(std::ostream& os, const ScenarioResult& result);

}  // namespace flowrank::sim
