#include "flowrank/sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "flowrank/dist/exponential.hpp"
#include "flowrank/dist/mixture.hpp"
#include "flowrank/dist/pareto.hpp"
#include "flowrank/exec/task_pool.hpp"
#include "flowrank/sim/spec_detail.hpp"
#include "flowrank/trace/trace_io.hpp"
#include "flowrank/util/error.hpp"
#include "flowrank/util/table.hpp"

namespace flowrank::sim {

namespace {

using detail::split;
using detail::trim;

double parse_double(const std::string& key, const std::string& value) {
  return detail::parse_double("scenario: key '" + key + "'", value);
}

std::uint64_t parse_uint(const std::string& key, const std::string& value) {
  return detail::parse_uint("scenario: key '" + key + "'", value);
}

/// key=value pairs of one grammar clause ("on=2,off-factor=0.1").
std::map<std::string, double> parse_clause(const std::string& what,
                                           const std::string& clause) {
  std::map<std::string, double> out;
  if (trim(clause).empty()) return out;
  for (const auto& item : split(clause, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(what + ": expected key=value, got '" + item + "'");
    }
    out[trim(item.substr(0, eq))] = parse_double(what, trim(item.substr(eq + 1)));
  }
  return out;
}

double take(std::map<std::string, double>& args, const std::string& key,
            double fallback) {
  const auto it = args.find(key);
  if (it == args.end()) return fallback;
  const double value = it->second;
  args.erase(it);
  return value;
}

void expect_empty(const std::map<std::string, double>& args, const std::string& what) {
  if (args.empty()) return;
  throw std::invalid_argument(what + ": unknown parameter '" + args.begin()->first +
                              "'");
}

std::shared_ptr<const dist::FlowSizeDistribution> parse_dist_component(
    const std::string& component, double& weight_out) {
  const auto colon = component.find(':');
  const std::string family = trim(component.substr(0, colon));
  auto args = parse_clause("dist " + family,
                           colon == std::string::npos ? "" : component.substr(colon + 1));
  weight_out = take(args, "weight", 1.0);

  std::shared_ptr<const dist::FlowSizeDistribution> out;
  if (family == "pareto") {
    const double beta = take(args, "beta", 1.5);
    if (args.count("min")) {
      out = std::make_shared<dist::Pareto>(take(args, "min", 0.0), beta);
    } else {
      out = std::make_shared<dist::Pareto>(
          dist::Pareto::from_mean(take(args, "mean", 9.6), beta));
    }
  } else if (family == "bounded_pareto") {
    out = std::make_shared<dist::BoundedPareto>(take(args, "min", 4.0),
                                                take(args, "beta", 3.0),
                                                take(args, "max", 2000.0));
  } else if (family == "exponential") {
    out = std::make_shared<dist::Exponential>(dist::Exponential::from_mean(
        take(args, "mean", 9.6), take(args, "min", 1.0)));
  } else if (family == "weibull") {
    out = std::make_shared<dist::Weibull>(
        dist::Weibull::from_mean(take(args, "mean", 9.6), take(args, "shape", 1.0),
                                 take(args, "min", 1.0)));
  } else {
    throw std::invalid_argument(
        "dist: unknown family '" + family +
        "' (pareto | bounded_pareto | exponential | weibull)");
  }
  expect_empty(args, "dist " + family);
  return out;
}

/// The dotted fault.* sub-keys, mapping onto trace::FaultSpec.
void apply_fault_entry(trace::FaultSpec& fault, const std::string& key,
                       const std::string& value) {
  const std::string knob = key.substr(std::string("fault.").size());
  if (knob == "corrupt") {
    fault.corrupt_fraction = parse_double(key, value);
  } else if (knob == "truncate") {
    fault.truncate_fraction = parse_double(key, value);
  } else if (knob == "stall-every") {
    fault.stall_every_batches = parse_uint(key, value);
  } else if (knob == "stall-ms") {
    fault.stall_ms = static_cast<std::uint32_t>(parse_uint(key, value));
  } else if (knob == "burst-flows") {
    fault.burst_flows = parse_uint(key, value);
  } else if (knob == "burst-every") {
    fault.burst_every_s = parse_double(key, value);
  } else if (knob == "burst-duration") {
    fault.burst_duration_s = parse_double(key, value);
  } else if (knob == "seed") {
    fault.seed = parse_uint(key, value);
  } else {
    throw std::invalid_argument("scenario: unknown fault knob '" + key + "'");
  }
}

/// The dotted chan.* sub-keys, mapping onto agg::SummaryFaultSpec.
void apply_chan_entry(agg::SummaryFaultSpec& chan, const std::string& key,
                      const std::string& value) {
  const auto parse_fraction = [&](const std::string& k, const std::string& v) {
    const double fraction = parse_double(k, v);
    if (!(fraction >= 0.0 && fraction <= 1.0)) {
      throw std::invalid_argument("scenario: key '" + k +
                                  "' must be a fraction in [0, 1]");
    }
    return fraction;
  };
  const std::string knob = key.substr(std::string("chan.").size());
  if (knob == "drop") {
    chan.drop_fraction = parse_fraction(key, value);
  } else if (knob == "corrupt") {
    chan.corrupt_fraction = parse_fraction(key, value);
  } else if (knob == "delay") {
    chan.delay_fraction = parse_fraction(key, value);
  } else if (knob == "delay-windows") {
    chan.delay_windows = parse_uint(key, value);
    if (chan.delay_windows < 1) {
      throw std::invalid_argument("scenario: chan.delay-windows >= 1");
    }
  } else if (knob == "duplicate") {
    chan.duplicate_fraction = parse_fraction(key, value);
  } else if (knob == "outage-agent") {
    chan.outage_agent = static_cast<std::uint32_t>(parse_uint(key, value));
  } else if (knob == "outage-from") {
    chan.outage_from = parse_uint(key, value);
  } else if (knob == "outage-windows") {
    chan.outage_windows = parse_uint(key, value);
  } else if (knob == "seed") {
    chan.seed = parse_uint(key, value);
  } else {
    throw std::invalid_argument("scenario: unknown chan knob '" + key + "'");
  }
}

trace::FlowChurnConfig parse_churn(const std::string& clause) {
  auto args = parse_clause("churn", clause);
  trace::FlowChurnConfig churn;
  churn.population = static_cast<std::size_t>(
      take(args, "population", static_cast<double>(churn.population)));
  churn.churn_per_s = take(args, "rate", churn.churn_per_s);
  churn.mean_packets = take(args, "packets", churn.mean_packets);
  churn.mean_duration_s = take(args, "flow-duration", churn.mean_duration_s);
  churn.tcp_fraction = take(args, "tcp", churn.tcp_fraction);
  expect_empty(args, "churn");
  return churn;
}

trace::OnOffArrivals parse_onoff(const std::string& clause) {
  auto args = parse_clause("onoff", clause);
  trace::OnOffArrivals on_off;
  on_off.enabled = true;
  on_off.mean_on_s = take(args, "on", on_off.mean_on_s);
  on_off.mean_off_s = take(args, "off", on_off.mean_off_s);
  on_off.on_factor = take(args, "on-factor", on_off.on_factor);
  on_off.off_factor = take(args, "off-factor", on_off.off_factor);
  expect_empty(args, "onoff");
  return on_off;
}

// --- per-mode key whitelists (the monitor/aggregate analogue of the
// experiment layer's per-model axis whitelists): every key is parsed in
// every mode, but an unknown-key error names only the keys meaningful
// for the spec's active mode, so a typo points at the right family.

const std::vector<std::string>& base_mode_keys() {
  static const std::vector<std::string> keys = {
      "beta",      "bin",         "churn",           "definition",
      "dist",      "duration",    "epoch-gap",       "epochs",
      "flow-rate", "flow-rate-scale", "mode",        "name",
      "onoff",     "packet-size", "path",            "preset",
      "rates",     "runs",        "seed",            "shards",
      "t",         "threads",     "ties",            "trace",
      "trace-seed"};
  return keys;
}

const std::vector<std::string>& monitor_mode_keys() {
  static const std::vector<std::string> keys = {
      "budget",          "ewma",
      "fault.burst-duration", "fault.burst-every",
      "fault.burst-flows", "fault.corrupt",
      "fault.seed",      "fault.stall-every",
      "fault.stall-ms",  "fault.truncate",
      "on-stall",        "overload",
      "snapshot-every",  "watchdog-ms",
      "window"};
  return keys;
}

const std::vector<std::string>& aggregate_mode_keys() {
  static const std::vector<std::string> keys = {
      "agents",          "chan.corrupt",
      "chan.delay",      "chan.delay-windows",
      "chan.drop",       "chan.duplicate",
      "chan.outage-agent", "chan.outage-from",
      "chan.outage-windows", "chan.seed",
      "deadline-ms",     "quarantine-after",
      "readmit-after",   "split",
      "summary",         "summary-slots",
      "union-capacity"};
  return keys;
}

/// "unknown key 'x' (valid keys for mode=monitor: ...)" — the key list
/// is the base set plus the active mode's family, sorted.
std::string unknown_key_message(const ScenarioSpec& spec, const std::string& key) {
  const char* mode = spec.aggregate.enabled ? "aggregate"
                     : spec.monitor.enabled ? "monitor"
                                            : "batch";
  std::vector<std::string> keys = base_mode_keys();
  if (spec.monitor.enabled) {
    const auto& extra = monitor_mode_keys();
    keys.insert(keys.end(), extra.begin(), extra.end());
  } else if (spec.aggregate.enabled) {
    const auto& extra = aggregate_mode_keys();
    keys.insert(keys.end(), extra.begin(), extra.end());
  }
  std::sort(keys.begin(), keys.end());
  std::string message =
      "scenario: unknown key '" + key + "' (valid keys for mode=" + mode + ": ";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) message += ", ";
    message += keys[i];
  }
  message += ")";
  return message;
}

/// Applies one key=value entry onto the spec. The single source of truth
/// for the key set — files and CLI overrides both route through here.
void apply_entry(ScenarioSpec& spec, const std::string& key, const std::string& value) {
  if (key == "name") {
    spec.name = value;
  } else if (key == "trace") {
    spec.trace = value;
  } else if (key == "preset") {
    if (value != "sprint_5tuple" && value != "sprint_prefix24" &&
        value != "abilene" && value != "custom") {
      throw std::invalid_argument("scenario: unknown preset '" + value + "'");
    }
    spec.preset = value;
  } else if (key == "beta") {
    spec.beta = parse_double(key, value);
  } else if (key == "dist") {
    spec.dist = value;
  } else if (key == "duration") {
    spec.duration_s = parse_double(key, value);
  } else if (key == "flow-rate") {
    spec.flow_rate_per_s = parse_double(key, value);
  } else if (key == "flow-rate-scale") {
    spec.flow_rate_scale = parse_double(key, value);
  } else if (key == "trace-seed") {
    spec.trace_seed = parse_uint(key, value);
  } else if (key == "packet-size") {
    spec.packet_size_bytes = static_cast<std::uint32_t>(parse_uint(key, value));
  } else if (key == "epochs") {
    spec.epochs = parse_uint(key, value);
    if (spec.epochs < 1) throw std::invalid_argument("scenario: epochs >= 1");
  } else if (key == "epoch-gap") {
    spec.epoch_gap_s = parse_double(key, value);
  } else if (key == "onoff") {
    spec.on_off = parse_onoff(value);
  } else if (key == "churn") {
    spec.churn = parse_churn(value);
  } else if (key == "bin") {
    spec.bin_seconds = parse_double(key, value);
  } else if (key == "t") {
    spec.top_t = parse_uint(key, value);
  } else if (key == "rates") {
    spec.sampling_rates.clear();
    for (const auto& rate : split(value, ',')) {
      spec.sampling_rates.push_back(parse_double(key, rate));
    }
  } else if (key == "runs") {
    spec.runs = static_cast<int>(parse_uint(key, value));
  } else if (key == "seed") {
    spec.seed = parse_uint(key, value);
  } else if (key == "ties") {
    if (value == "paper") {
      spec.tie_policy = metrics::TiePolicy::kPaper;
    } else if (value == "lenient") {
      spec.tie_policy = metrics::TiePolicy::kLenient;
    } else {
      throw std::invalid_argument("scenario: ties must be paper|lenient, got '" +
                                  value + "'");
    }
  } else if (key == "definition") {
    if (value == "5tuple") {
      spec.definition = packet::FlowDefinition::kFiveTuple;
    } else if (value == "prefix24") {
      spec.definition = packet::FlowDefinition::kDstPrefix24;
    } else {
      throw std::invalid_argument(
          "scenario: definition must be 5tuple|prefix24, got '" + value + "'");
    }
  } else if (key == "path") {
    if (value == "count") {
      spec.path = ExecutionPath::kCount;
    } else if (value == "packet") {
      spec.path = ExecutionPath::kPacket;
    } else {
      throw std::invalid_argument("scenario: path must be count|packet, got '" +
                                  value + "'");
    }
  } else if (key == "threads") {
    // Validates the sanity cap up front (0 = all hardware threads).
    spec.num_threads = exec::TaskPool::resolve_parallelism(parse_uint(key, value));
    if (value == "0") spec.num_threads = 0;  // keep the symbolic 0
  } else if (key == "shards") {
    spec.num_shards = exec::TaskPool::resolve_parallelism(parse_uint(key, value));
    if (value == "0") spec.num_shards = 0;
  } else if (key == "mode") {
    if (value == "batch") {
      spec.monitor.enabled = false;
      spec.aggregate.enabled = false;
    } else if (value == "monitor") {
      spec.monitor.enabled = true;
      spec.aggregate.enabled = false;
    } else if (value == "aggregate") {
      spec.monitor.enabled = false;
      spec.aggregate.enabled = true;
    } else {
      throw std::invalid_argument(
          "scenario: mode must be batch|monitor|aggregate, got '" + value + "'");
    }
  } else if (key == "agents") {
    spec.aggregate.agents = parse_uint(key, value);
    if (spec.aggregate.agents < 1) {
      throw std::invalid_argument("scenario: agents >= 1");
    }
  } else if (key == "split") {
    if (value == "flow") {
      spec.aggregate.split = agg::FleetSplit::kFlow;
    } else if (value == "packet") {
      spec.aggregate.split = agg::FleetSplit::kPacket;
    } else {
      throw std::invalid_argument("scenario: split must be flow|packet, got '" +
                                  value + "'");
    }
  } else if (key == "deadline-ms") {
    spec.aggregate.deadline_ms = static_cast<std::uint32_t>(parse_uint(key, value));
  } else if (key == "quarantine-after") {
    spec.aggregate.quarantine_after = parse_uint(key, value);
    if (spec.aggregate.quarantine_after < 1) {
      throw std::invalid_argument("scenario: quarantine-after >= 1");
    }
  } else if (key == "readmit-after") {
    spec.aggregate.readmit_after = parse_uint(key, value);
    if (spec.aggregate.readmit_after < 1) {
      throw std::invalid_argument("scenario: readmit-after >= 1");
    }
  } else if (key == "summary") {
    if (value == "table") {
      spec.aggregate.summary = agg::SummaryKind::kFlowTable;
    } else if (value == "spacesaving") {
      spec.aggregate.summary = agg::SummaryKind::kSpaceSaving;
    } else {
      throw std::invalid_argument(
          "scenario: summary must be table|spacesaving, got '" + value + "'");
    }
  } else if (key == "summary-slots") {
    spec.aggregate.summary_slots = parse_uint(key, value);
    if (spec.aggregate.summary_slots < 1) {
      throw std::invalid_argument("scenario: summary-slots >= 1");
    }
  } else if (key == "union-capacity") {
    spec.aggregate.union_capacity = parse_uint(key, value);
  } else if (key.rfind("chan.", 0) == 0) {
    apply_chan_entry(spec.aggregate.chan, key, value);
  } else if (key == "window") {
    spec.monitor.window_s = parse_double(key, value);
    if (spec.monitor.window_s < 0.0) {
      throw std::invalid_argument("scenario: window >= 0 (0 = use bin)");
    }
  } else if (key == "snapshot-every") {
    spec.monitor.snapshot_every = parse_uint(key, value);
    if (spec.monitor.snapshot_every < 1) {
      throw std::invalid_argument("scenario: snapshot-every >= 1");
    }
  } else if (key == "overload") {
    if (value == "block") {
      spec.monitor.shed = false;
    } else if (value == "shed") {
      spec.monitor.shed = true;
    } else {
      throw std::invalid_argument("scenario: overload must be block|shed, got '" +
                                  value + "'");
    }
  } else if (key == "ewma") {
    spec.monitor.ewma_alpha = parse_double(key, value);
    if (!(spec.monitor.ewma_alpha > 0.0 && spec.monitor.ewma_alpha <= 1.0)) {
      throw std::invalid_argument("scenario: ewma must be in (0, 1]");
    }
  } else if (key == "budget") {
    spec.monitor.window_packet_budget = parse_uint(key, value);
  } else if (key == "watchdog-ms") {
    spec.monitor.watchdog_ms = static_cast<std::uint32_t>(parse_uint(key, value));
  } else if (key == "on-stall") {
    if (value == "rotate") {
      spec.monitor.fail_on_stall = false;
    } else if (value == "fail") {
      spec.monitor.fail_on_stall = true;
    } else {
      throw std::invalid_argument("scenario: on-stall must be rotate|fail, got '" +
                                  value + "'");
    }
  } else if (key.rfind("fault.", 0) == 0) {
    apply_fault_entry(spec.monitor.fault, key, value);
  } else {
    throw std::invalid_argument(unknown_key_message(spec, key));
  }
}

}  // namespace

const std::vector<std::string>& scenario_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> all = base_mode_keys();
    const auto& monitor = monitor_mode_keys();
    const auto& aggregate = aggregate_mode_keys();
    all.insert(all.end(), monitor.begin(), monitor.end());
    all.insert(all.end(), aggregate.begin(), aggregate.end());
    std::sort(all.begin(), all.end());
    return all;
  }();
  return keys;
}

void apply_scenario_entry(ScenarioSpec& spec, const std::string& key,
                          const std::string& value) {
  apply_entry(spec, key, value);
}

std::shared_ptr<const dist::FlowSizeDistribution> parse_dist(
    const std::string& grammar) {
  const auto components = split(grammar, '|');
  if (components.size() == 1) {
    double weight = 1.0;
    return parse_dist_component(components.front(), weight);
  }
  std::vector<dist::Mixture::Component> mix;
  mix.reserve(components.size());
  for (const auto& component : components) {
    double weight = 1.0;
    auto d = parse_dist_component(component, weight);
    mix.push_back(dist::Mixture::Component{weight, std::move(d)});
  }
  return std::make_shared<dist::Mixture>(std::move(mix));
}

void parse_spec_file(
    const std::string& path,
    const std::function<void(const std::string&, const std::string&)>& entry) {
  std::ifstream is(path);
  if (!is) {
    throw Error(ErrorCategory::kIo, "scenario", "cannot open " + path);
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // '#' opens a comment at line start or after whitespace; a '#'
    // embedded in a token (e.g. a file path) is part of the value.
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '#' && (i == 0 || line[i - 1] == ' ' || line[i - 1] == '\t')) {
        line.erase(i);
        break;
      }
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw Error(ErrorCategory::kSpec, path + ":" + std::to_string(line_no),
                  "expected key = value");
    }
    const std::string key = trim(line.substr(0, eq));
    try {
      entry(key, trim(line.substr(eq + 1)));
    } catch (const std::invalid_argument& e) {
      // File, line and offending key up front; the entry's own message
      // carries the value diagnosis.
      throw Error(ErrorCategory::kSpec, path + ":" + std::to_string(line_no),
                  "key '" + key + "': " + e.what());
    }
  }
}

ScenarioSpec parse_scenario_file(const std::string& path) {
  ScenarioSpec spec;
  parse_spec_file(path, [&spec](const std::string& key, const std::string& value) {
    apply_entry(spec, key, value);
  });
  return spec;
}

void apply_scenario_overrides(ScenarioSpec& spec, const util::Cli& cli) {
  for (const std::string& key : scenario_keys()) {
    if (cli.has(key)) apply_entry(spec, key, cli.get_string(key, ""));
  }
}

ScenarioSpec scenario_from_cli(const util::Cli& cli) {
  ScenarioSpec spec;
  const std::string file = cli.get_string("scenario", "");
  if (!file.empty()) spec = parse_scenario_file(file);
  apply_scenario_overrides(spec, cli);
  return spec;
}

std::shared_ptr<const dist::FlowSizeDistribution> make_size_distribution(
    const ScenarioSpec& spec) {
  if (!spec.dist.empty()) return parse_dist(spec.dist);
  if (spec.preset == "sprint_5tuple") {
    return std::make_shared<dist::Pareto>(dist::Pareto::from_mean(9.6, spec.beta));
  }
  if (spec.preset == "sprint_prefix24") {
    return std::make_shared<dist::Pareto>(dist::Pareto::from_mean(33.2, spec.beta));
  }
  if (spec.preset == "abilene") {
    return std::make_shared<dist::BoundedPareto>(4.0, 3.0, 2000.0);
  }
  throw std::invalid_argument("scenario: preset=custom requires a dist= grammar");
}

namespace {

/// The spec's trace source before any fault wrapping.
std::shared_ptr<const trace::TraceSource> make_base_trace_source(
    const ScenarioSpec& spec) {
  if (spec.trace == "churn") {
    // pktgen-style bounded-population workload; shared keys fill the
    // shared knobs, the `churn` clause the population/turnover ones.
    const auto epoch_config = [&spec](std::uint64_t seed) {
      trace::FlowChurnConfig config = spec.churn;
      config.duration_s = spec.duration_s;
      if (spec.flow_rate_per_s > 0.0) config.flow_rate_per_s = spec.flow_rate_per_s;
      config.flow_rate_per_s *= spec.flow_rate_scale;
      config.packet_size_bytes = spec.packet_size_bytes;
      config.seed = seed;
      return config;
    };
    if (spec.epochs == 1) {
      return std::make_shared<trace::FlowChurnTraceSource>(
          epoch_config(spec.trace_seed));
    }
    // Multi-epoch: per-epoch seeds, so the populations churn across
    // epochs too — same convention as the synthetic source.
    std::vector<std::shared_ptr<const trace::TraceSource>> epochs;
    epochs.reserve(spec.epochs);
    for (std::size_t k = 0; k < spec.epochs; ++k) {
      epochs.push_back(std::make_shared<trace::FlowChurnTraceSource>(
          epoch_config(spec.trace_seed + k)));
    }
    return std::make_shared<trace::ConcatTraceSource>(std::move(epochs),
                                                      spec.epoch_gap_s);
  }
  if (spec.trace != "synthetic") {
    // FRT1 file replay. epochs > 1 loops the recording back to back — the
    // streaming soak-test shape.
    trace::FileTraceSource::Options options;
    options.packet_size_bytes = spec.packet_size_bytes;
    options.seed = spec.trace_seed;
    auto file =
        std::make_shared<trace::FileTraceSource>(spec.trace, options);
    if (spec.epochs == 1) return file;
    // Load the file once; every epoch replays the in-memory records
    // instead of re-reading and re-sorting the file per epoch.
    auto loaded = std::make_shared<trace::FixedTraceSource>(file->flows(),
                                                            file->name());
    std::vector<std::shared_ptr<const trace::TraceSource>> epochs(spec.epochs,
                                                                  loaded);
    return std::make_shared<trace::ConcatTraceSource>(std::move(epochs),
                                                      spec.epoch_gap_s);
  }

  const auto epoch_config = [&spec](std::uint64_t seed) {
    trace::FlowTraceConfig config;
    if (spec.preset == "sprint_5tuple") {
      config = trace::FlowTraceConfig::sprint_5tuple(spec.beta, seed);
    } else if (spec.preset == "sprint_prefix24") {
      config = trace::FlowTraceConfig::sprint_prefix24(spec.beta, seed);
    } else if (spec.preset == "abilene") {
      config = trace::FlowTraceConfig::abilene(seed);
    } else {
      config.seed = seed;
      if (!(spec.flow_rate_per_s > 0.0)) {
        throw std::invalid_argument("scenario: preset=custom requires flow-rate > 0");
      }
    }
    if (!spec.dist.empty() || spec.preset == "custom") {
      config.size_dist = make_size_distribution(spec);
    }
    config.duration_s = spec.duration_s;
    if (spec.flow_rate_per_s > 0.0) config.flow_rate_per_s = spec.flow_rate_per_s;
    config.flow_rate_per_s *= spec.flow_rate_scale;
    config.packet_size_bytes = spec.packet_size_bytes;
    config.on_off = spec.on_off;
    return config;
  };

  if (spec.epochs == 1) {
    return std::make_shared<trace::SyntheticTraceSource>(epoch_config(spec.trace_seed),
                                                         spec.preset);
  }
  // Multi-epoch streaming: per-epoch seeds so consecutive epochs carry
  // different flow populations, concatenated end to end.
  std::vector<std::shared_ptr<const trace::TraceSource>> epochs;
  epochs.reserve(spec.epochs);
  for (std::size_t k = 0; k < spec.epochs; ++k) {
    epochs.push_back(std::make_shared<trace::SyntheticTraceSource>(
        epoch_config(spec.trace_seed + k),
        spec.preset + " epoch " + std::to_string(k)));
  }
  return std::make_shared<trace::ConcatTraceSource>(std::move(epochs),
                                                    spec.epoch_gap_s);
}

}  // namespace

std::shared_ptr<const trace::TraceSource> make_trace_source(const ScenarioSpec& spec) {
  auto source = make_base_trace_source(spec);
  // Fault injection only arms in monitor mode: batch figure runs keep
  // their clean traces even if a spec carries stray fault.* keys.
  if (spec.monitor.enabled && spec.monitor.fault.any()) {
    return std::make_shared<trace::FaultInjectingTraceSource>(std::move(source),
                                                              spec.monitor.fault);
  }
  return source;
}

SimConfig make_sim_config(const ScenarioSpec& spec) {
  if (spec.sampling_rates.empty()) {
    throw std::invalid_argument("scenario: at least one sampling rate");
  }
  SimConfig config;
  config.bin_seconds = spec.bin_seconds;
  config.top_t = spec.top_t;
  config.sampling_rates = spec.sampling_rates;
  config.runs = spec.runs;
  config.definition = spec.definition;
  config.tie_policy = spec.tie_policy;
  config.seed = spec.seed;
  config.num_threads = spec.num_threads;
  return config;
}

monitor::MonitorConfig make_monitor_config(const ScenarioSpec& spec) {
  if (!spec.monitor.enabled) {
    throw std::invalid_argument("scenario: make_monitor_config requires mode=monitor");
  }
  if (spec.sampling_rates.size() != 1) {
    throw std::invalid_argument(
        "scenario: mode=monitor needs exactly one sampling rate (rates=...), got " +
        std::to_string(spec.sampling_rates.size()));
  }
  monitor::MonitorConfig config;
  config.window_s =
      spec.monitor.window_s > 0.0 ? spec.monitor.window_s : spec.bin_seconds;
  config.snapshot_every = spec.monitor.snapshot_every;
  config.top_t = spec.top_t;
  config.sampling_rate = spec.sampling_rates.front();
  config.seed = spec.seed;
  config.num_shards = spec.num_shards;
  config.table_options.definition = spec.definition;
  config.overload = spec.monitor.shed ? ingest::OverloadPolicy::kShed
                                      : ingest::OverloadPolicy::kBlock;
  config.window_packet_budget = spec.monitor.window_packet_budget;
  config.ewma_alpha = spec.monitor.ewma_alpha;
  config.stall_deadline_ms = spec.monitor.watchdog_ms;
  config.fail_on_stall = spec.monitor.fail_on_stall;
  return config;
}

agg::FleetConfig make_fleet_config(const ScenarioSpec& spec) {
  if (!spec.aggregate.enabled) {
    throw std::invalid_argument("scenario: make_fleet_config requires mode=aggregate");
  }
  if (spec.sampling_rates.size() != 1) {
    throw std::invalid_argument(
        "scenario: mode=aggregate needs exactly one sampling rate (rates=...), got " +
        std::to_string(spec.sampling_rates.size()));
  }
  agg::FleetConfig config;
  config.agents = spec.aggregate.agents;
  config.split = spec.aggregate.split;
  config.window_s = spec.bin_seconds;
  config.sampling_rate = spec.sampling_rates.front();
  config.seed = spec.seed;
  config.definition = spec.definition;
  config.num_shards = spec.num_shards;
  config.top_t = spec.top_t;
  config.deadline_ms = spec.aggregate.deadline_ms;
  config.quarantine_after = spec.aggregate.quarantine_after;
  config.readmit_after = spec.aggregate.readmit_after;
  config.summary_kind = spec.aggregate.summary;
  config.summary_slots = spec.aggregate.summary_slots;
  config.union_capacity = spec.aggregate.union_capacity;
  config.chan = spec.aggregate.chan;
  return config;
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  if (spec.monitor.enabled) {
    throw std::invalid_argument(
        "scenario: mode=monitor runs through the experiment engine "
        "(flowrank_experiments) or monitor::MonitorLoop, not run_scenario");
  }
  if (spec.aggregate.enabled) {
    throw std::invalid_argument(
        "scenario: mode=aggregate runs through the experiment engine "
        "(flowrank_experiments) or agg::run_fleet, not run_scenario");
  }
  const auto source = make_trace_source(spec);
  const auto trace = source->flows();
  const SimConfig config = make_sim_config(spec);

  ScenarioResult result;
  result.spec = spec;
  result.source_name = source->name();
  result.flow_count = trace.flows.size();
  result.packet_count = trace.total_packets();
  result.duration_s = trace.config.duration_s;
  if (spec.path == ExecutionPath::kCount) {
    result.count = run_binned_simulation(trace, config);
  } else {
    result.packet.reserve(spec.sampling_rates.size());
    for (const double rate : spec.sampling_rates) {
      result.packet.push_back(run_packet_level_once(trace, rate, config, spec.seed,
                                                    spec.num_shards));
    }
  }
  return result;
}

std::size_t export_scenario_trace(const ScenarioSpec& spec, const std::string& path) {
  const auto source = make_trace_source(spec);
  const auto trace = source->flows();
  trace::save_flow_records(path, trace.flows);
  return trace.flows.size();
}

void print_scenario_report(std::ostream& os, const ScenarioResult& result) {
  const ScenarioSpec& spec = result.spec;
  os << "# scenario: " << spec.name << "\n";
  os << "# source:   " << result.source_name << " — " << result.flow_count
     << " flows, " << result.packet_count << " packets over " << result.duration_s
     << " s\n";
  os << "# config:   bin " << spec.bin_seconds << " s, top-" << spec.top_t << ", "
     << (spec.path == ExecutionPath::kCount
             ? std::to_string(spec.runs) + " runs (count path)"
             : std::string("packet path"))
     << ", ties "
     << (spec.tie_policy == metrics::TiePolicy::kPaper ? "paper" : "lenient")
     << "\n";

  if (spec.path == ExecutionPath::kCount) {
    for (const char* metric : {"ranking", "detection"}) {
      os << "\n## " << metric
         << " metric (mean/std of swapped pairs per bin over runs)\n";
      std::vector<std::string> headers{"time_s", "flows"};
      for (double rate : spec.sampling_rates) {
        headers.push_back("p=" + util::format_double(rate * 100) + "%");
        headers.push_back("std");
      }
      util::Table table(headers);
      const auto& series0 = result.count.series.front();
      for (std::size_t b = 0; b < series0.bins.size(); ++b) {
        table.begin_row();
        table.add_cell((static_cast<double>(b) + 1.0) * spec.bin_seconds);
        table.add_cell(series0.bins[b].flows_in_bin);
        for (const auto& series : result.count.series) {
          const auto& stats = metric == std::string("ranking")
                                  ? series.bins[b].ranking
                                  : series.bins[b].detection;
          table.add_cell(stats.count() > 0 ? stats.mean() : std::nan(""));
          table.add_cell(stats.count() > 0 ? stats.stddev() : std::nan(""));
        }
      }
      table.print(os);
    }
    return;
  }

  for (std::size_t r = 0; r < result.packet.size(); ++r) {
    os << "\n## packet path, p = " << spec.sampling_rates[r] * 100 << "%\n";
    util::Table table({"bin", "ranking_swapped", "detection_swapped", "recall"});
    for (std::size_t b = 0; b < result.packet[r].size(); ++b) {
      const auto& m = result.packet[r][b];
      table.add_row(b, m.ranking_swapped, m.detection_swapped, m.top_set_recall);
    }
    table.print(os);
  }
}

}  // namespace flowrank::sim
