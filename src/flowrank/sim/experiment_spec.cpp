// The spec grammar (key = value files, CLI overrides, sweep / dist /
// estimator sub-grammars) and the builders that turn a parsed
// ExperimentSpec into trace sources and engine configs. The engine that
// runs a spec lives in experiment.cpp.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "flowrank/dist/exponential.hpp"
#include "flowrank/dist/mixture.hpp"
#include "flowrank/dist/pareto.hpp"
#include "flowrank/exec/task_pool.hpp"
#include "flowrank/sim/experiment.hpp"
#include "flowrank/util/error.hpp"

namespace flowrank::sim {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const auto pos = s.find(sep, start);
    out.push_back(trim(s.substr(start, pos - start)));
    if (pos == std::string::npos) return out;
    start = pos + 1;
  }
}

/// Strict full-token double parse; `what` names the key/clause for the
/// error message.
double parse_double(const std::string& what, const std::string& value) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument(what + ": expected a number, got '" + value + "'");
  }
}

/// Strict full-token non-negative integer parse.
std::uint64_t parse_uint(const std::string& what, const std::string& value) {
  try {
    std::size_t used = 0;
    const long long parsed = std::stoll(value, &used);
    if (used != value.size() || parsed < 0) throw std::invalid_argument(value);
    return static_cast<std::uint64_t>(parsed);
  } catch (const std::exception&) {
    throw std::invalid_argument(what + ": expected a non-negative integer, got '" +
                                value + "'");
  }
}

double key_double(const std::string& key, const std::string& value) {
  return parse_double("experiment: key '" + key + "'", value);
}

std::uint64_t key_uint(const std::string& key, const std::string& value) {
  return parse_uint("experiment: key '" + key + "'", value);
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
    fault.corrupt_fraction = key_double(key, value);
  } else if (knob == "truncate") {
    fault.truncate_fraction = key_double(key, value);
  } else if (knob == "stall-every") {
    fault.stall_every_batches = key_uint(key, value);
  } else if (knob == "stall-ms") {
    fault.stall_ms = static_cast<std::uint32_t>(key_uint(key, value));
  } else if (knob == "burst-flows") {
    fault.burst_flows = key_uint(key, value);
  } else if (knob == "burst-every") {
    fault.burst_every_s = key_double(key, value);
  } else if (knob == "burst-duration") {
    fault.burst_duration_s = key_double(key, value);
  } else if (knob == "seed") {
    fault.seed = key_uint(key, value);
  } else {
    throw std::invalid_argument("experiment: unknown fault knob '" + key + "'");
  }
}

/// The dotted chan.* sub-keys, mapping onto agg::SummaryFaultSpec.
void apply_chan_entry(agg::SummaryFaultSpec& chan, const std::string& key,
                      const std::string& value) {
  const auto parse_fraction = [&](const std::string& k, const std::string& v) {
    const double fraction = key_double(k, v);
    if (!(fraction >= 0.0 && fraction <= 1.0)) {
      throw std::invalid_argument("experiment: key '" + k +
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
    chan.delay_windows = key_uint(key, value);
    if (chan.delay_windows < 1) {
      throw std::invalid_argument("experiment: chan.delay-windows >= 1");
    }
  } else if (knob == "duplicate") {
    chan.duplicate_fraction = parse_fraction(key, value);
  } else if (knob == "outage-agent") {
    chan.outage_agent = static_cast<std::uint32_t>(key_uint(key, value));
  } else if (knob == "outage-from") {
    chan.outage_from = key_uint(key, value);
  } else if (knob == "outage-windows") {
    chan.outage_windows = key_uint(key, value);
  } else if (knob == "seed") {
    chan.seed = key_uint(key, value);
  } else {
    throw std::invalid_argument("experiment: unknown chan knob '" + key + "'");
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

/// The sweepable parameter names.
constexpr const char* kSweepParams[] = {"rate", "t",        "n",  "beta",
                                        "bin",  "duration", "s1", "s2"};

bool is_sweep_param(const std::string& param) {
  for (const char* known : kSweepParams) {
    if (param == known) return true;
  }
  return false;
}

/// Replaces or appends the axis for `param` (last declaration wins, so a
/// CLI --sweep-rate override replaces the file's rate grid in place).
void set_axis(ExperimentSpec& spec, const std::string& param,
              const std::string& grammar) {
  if (!is_sweep_param(param)) {
    throw std::invalid_argument("experiment: unknown sweep parameter '" + param +
                                "' (rate|t|n|beta|bin|duration|s1|s2)");
  }
  SweepAxis axis{param, parse_sweep_values(grammar), grammar};
  for (auto& existing : spec.sweeps) {
    if (existing.param == param) {
      existing = std::move(axis);
      return;
    }
  }
  spec.sweeps.push_back(std::move(axis));
}

/// True for "sweep <param>" (file form) and "sweep-<param>" (CLI form);
/// extracts the parameter name.
bool sweep_key(const std::string& key, std::string& param_out) {
  if (key.size() < 7 || key.compare(0, 5, "sweep") != 0) return false;
  const char sep = key[5];
  if (sep != ' ' && sep != '\t' && sep != '-') return false;
  param_out = trim(key.substr(6));
  return !param_out.empty();
}

// --- per-mode key lists: every key is parsed in every mode, but an
// unknown-key error names only the keys meaningful for the spec's active
// mode, so a typo points at the right family.

const std::vector<std::string>& base_mode_keys() {
  static const std::vector<std::string> keys = {
      "beta",      "bin",             "churn",    "counting",    "definition",
      "description", "dist",          "duration", "epoch-gap",   "epochs",
      "estimator", "exact-pairwise",  "flow-rate", "flow-rate-scale", "max-size",
      "metric",    "mode",            "model",    "n",           "name",
      "onoff",     "packet-size",     "pairwise", "preset",      "rates",
      "runs",      "seed",            "shards",   "t",           "tail-tol",
      "target",    "threads",         "ties",     "trace",       "trace-seed"};
  return keys;
}

/// Keys only batch mode reads: the exact model's fixed `rate` (the
/// monitor and the fleet sample at `rates`).
const std::vector<std::string>& batch_mode_keys() {
  static const std::vector<std::string> keys = {"rate"};
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
std::string unknown_key_message(const ExperimentSpec& spec, const std::string& key) {
  const char* mode = spec.aggregate.enabled ? "aggregate"
                     : spec.monitor.enabled ? "monitor"
                                            : "batch";
  std::vector<std::string> keys = base_mode_keys();
  const auto& extra = spec.monitor.enabled     ? monitor_mode_keys()
                      : spec.aggregate.enabled ? aggregate_mode_keys()
                                               : batch_mode_keys();
  keys.insert(keys.end(), extra.begin(), extra.end());
  std::sort(keys.begin(), keys.end());
  std::string message =
      "experiment: unknown key '" + key + "' (valid keys for mode=" + mode + ": ";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) message += ", ";
    message += keys[i];
  }
  message += "; plus sweep <param>)";
  return message;
}

}  // namespace

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

std::vector<double> parse_sweep_values(const std::string& grammar) {
  const std::string text = trim(grammar);
  const auto range = text.find("..");
  if (range == std::string::npos) {
    // Explicit list: v1,v2,v3 (any order, e.g. the descending beta grids).
    std::vector<double> values;
    for (const auto& item : split(text, ',')) {
      values.push_back(parse_double("sweep", item));
    }
    if (values.empty()) throw std::invalid_argument("sweep: empty value list");
    return values;
  }

  // Range form: <lo>..<hi> log|lin <count>.
  std::istringstream rest(text.substr(range + 2));
  const double lo = parse_double("sweep", text.substr(0, range));
  std::string hi_text, kind, count_text;
  rest >> hi_text >> kind >> count_text;
  std::string extra;
  if (rest >> extra) {
    throw std::invalid_argument("sweep: trailing '" + extra + "' in '" + text + "'");
  }
  if (hi_text.empty() || kind.empty() || count_text.empty()) {
    throw std::invalid_argument(
        "sweep: expected '<lo>..<hi> log|lin <count>', got '" + text + "'");
  }
  const double hi = parse_double("sweep", hi_text);
  const double count_d = parse_double("sweep", count_text);
  const int count = static_cast<int>(count_d);
  if (count_d != count || count < 2) {
    throw std::invalid_argument("sweep: count must be an integer >= 2");
  }
  if (!(lo < hi)) throw std::invalid_argument("sweep: range needs lo < hi");

  std::vector<double> values(static_cast<std::size_t>(count));
  if (kind == "log") {
    if (!(lo > 0.0)) throw std::invalid_argument("sweep: log range needs lo > 0");
    // Same construction as the historical figure rate grids (bench
    // log_spaced): equal log steps with the endpoint pinned exactly.
    const double step = (std::log(hi) - std::log(lo)) / (count - 1);
    for (int i = 0; i < count; ++i) {
      values[static_cast<std::size_t>(i)] = std::exp(std::log(lo) + step * i);
    }
  } else if (kind == "lin") {
    const double step = (hi - lo) / (count - 1);
    for (int i = 0; i < count; ++i) {
      values[static_cast<std::size_t>(i)] = lo + step * i;
    }
  } else {
    throw std::invalid_argument("sweep: spacing must be log|lin, got '" + kind + "'");
  }
  values.back() = hi;
  return values;
}

EstimatorStage parse_estimator(const std::string& grammar) {
  const std::string text = trim(grammar);
  const auto colon = text.find(':');
  const std::string kind = trim(text.substr(0, colon));
  auto args = parse_clause("estimator",
                           colon == std::string::npos ? "" : text.substr(colon + 1));
  const auto take_slots = [&args](double fallback) {
    const double value = take(args, "slots", fallback);
    if (!(value >= 0.0) || value != std::floor(value) || value > 1e9) {
      throw std::invalid_argument(
          "estimator: slots must be a non-negative integer");
    }
    return static_cast<std::size_t>(value);
  };

  EstimatorStage stage;
  if (kind == "none") {
    stage.kind = EstimatorStage::Kind::kNone;
  } else if (kind == "inversion") {
    stage.kind = EstimatorStage::Kind::kInversion;
  } else if (kind == "tcp_seq") {
    stage.kind = EstimatorStage::Kind::kTcpSeq;
  } else if (kind == "sample_and_hold") {
    stage.kind = EstimatorStage::Kind::kSampleAndHold;
    stage.slots = take_slots(1024.0);  // 0 = unbounded table
    stage.hold_probability = take(args, "hold", 0.1);
    if (!(stage.hold_probability > 0.0 && stage.hold_probability <= 1.0)) {
      throw std::invalid_argument("estimator: sample_and_hold hold in (0,1]");
    }
  } else if (kind == "space_saving") {
    stage.kind = EstimatorStage::Kind::kSpaceSaving;
    stage.slots = take_slots(1024.0);
    if (stage.slots < 1) {
      throw std::invalid_argument("estimator: space_saving slots >= 1");
    }
  } else {
    throw std::invalid_argument(
        "estimator: unknown kind '" + kind +
        "' (none | inversion | tcp_seq | sample_and_hold | space_saving)");
  }
  expect_empty(args, "estimator");
  return stage;
}

const std::vector<std::string>& experiment_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> all = base_mode_keys();
    for (const auto* family : {&batch_mode_keys(), &monitor_mode_keys(),
                               &aggregate_mode_keys()}) {
      all.insert(all.end(), family->begin(), family->end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }();
  return keys;
}

void apply_experiment_entry(ExperimentSpec& spec, const std::string& key,
                            const std::string& value) {
  std::string sweep_param;
  if (sweep_key(key, sweep_param)) {
    set_axis(spec, sweep_param, value);
  } else if (key == "name") {
    spec.name = value;
  } else if (key == "description") {
    spec.description = value;
  } else if (key == "model") {
    if (value == "exact") {
      spec.model = ExperimentModel::kExact;
    } else if (value == "mc") {
      spec.model = ExperimentModel::kMc;
    } else if (value == "packet") {
      spec.model = ExperimentModel::kPacket;
    } else {
      throw std::invalid_argument("experiment: model must be exact|mc|packet, got '" +
                                  value + "'");
    }
  } else if (key == "trace") {
    spec.trace = value;
  } else if (key == "preset") {
    if (value != "sprint_5tuple" && value != "sprint_prefix24" &&
        value != "abilene" && value != "custom") {
      throw std::invalid_argument("experiment: unknown preset '" + value + "'");
    }
    spec.preset = value;
  } else if (key == "beta") {
    spec.beta = key_double(key, value);
  } else if (key == "dist") {
    spec.dist = value;
  } else if (key == "duration") {
    spec.duration_s = key_double(key, value);
  } else if (key == "flow-rate") {
    spec.flow_rate_per_s = key_double(key, value);
  } else if (key == "flow-rate-scale") {
    spec.flow_rate_scale = key_double(key, value);
  } else if (key == "trace-seed") {
    spec.trace_seed = key_uint(key, value);
  } else if (key == "packet-size") {
    spec.packet_size_bytes = static_cast<std::uint32_t>(key_uint(key, value));
  } else if (key == "epochs") {
    spec.epochs = key_uint(key, value);
    if (spec.epochs < 1) throw std::invalid_argument("experiment: epochs >= 1");
  } else if (key == "epoch-gap") {
    spec.epoch_gap_s = key_double(key, value);
  } else if (key == "onoff") {
    spec.on_off = parse_onoff(value);
  } else if (key == "churn") {
    spec.churn = parse_churn(value);
  } else if (key == "bin") {
    spec.bin_seconds = key_double(key, value);
  } else if (key == "t") {
    spec.top_t = key_uint(key, value);
  } else if (key == "rates") {
    spec.sampling_rates.clear();
    for (const auto& rate : split(value, ',')) {
      spec.sampling_rates.push_back(key_double(key, rate));
    }
  } else if (key == "runs") {
    spec.runs = static_cast<int>(key_uint(key, value));
  } else if (key == "seed") {
    spec.seed = key_uint(key, value);
  } else if (key == "ties") {
    if (value == "paper") {
      spec.tie_policy = metrics::TiePolicy::kPaper;
    } else if (value == "lenient") {
      spec.tie_policy = metrics::TiePolicy::kLenient;
    } else {
      throw std::invalid_argument("experiment: ties must be paper|lenient, got '" +
                                  value + "'");
    }
  } else if (key == "definition") {
    if (value == "5tuple") {
      spec.definition = packet::FlowDefinition::kFiveTuple;
    } else if (value == "prefix24") {
      spec.definition = packet::FlowDefinition::kDstPrefix24;
    } else {
      throw std::invalid_argument(
          "experiment: definition must be 5tuple|prefix24, got '" + value + "'");
    }
  } else if (key == "threads") {
    // Validates the sanity cap up front (0 = all hardware threads).
    spec.num_threads = exec::TaskPool::resolve_parallelism(key_uint(key, value));
    if (value == "0") spec.num_threads = 0;  // keep the symbolic 0
  } else if (key == "shards") {
    spec.num_shards = exec::TaskPool::resolve_parallelism(key_uint(key, value));
    if (value == "0") spec.num_shards = 0;
  } else if (key == "metric") {
    if (value == "ranking") {
      spec.metric = ExactMetric::kRanking;
    } else if (value == "detection") {
      spec.metric = ExactMetric::kDetection;
    } else if (value == "optimal_rate") {
      spec.metric = ExactMetric::kOptimalRate;
    } else if (value == "gaussian_error") {
      spec.metric = ExactMetric::kGaussianError;
    } else {
      throw std::invalid_argument(
          "experiment: metric must be ranking|detection|optimal_rate|"
          "gaussian_error, got '" + value + "'");
    }
  } else if (key == "n") {
    spec.exact_n = std::llround(key_double(key, value));
    if (spec.exact_n < 1) throw std::invalid_argument("experiment: n >= 1");
  } else if (key == "rate") {
    if (spec.monitor.enabled || spec.aggregate.enabled) {
      throw std::invalid_argument(unknown_key_message(spec, key));
    }
    spec.exact_rate = key_double(key, value);
    if (!(spec.exact_rate > 0.0 && spec.exact_rate <= 1.0)) {
      throw std::invalid_argument("experiment: rate in (0,1]");
    }
    spec.exact_rate_given = true;
  } else if (key == "target") {
    spec.optimal_target = key_double(key, value);
    if (!(spec.optimal_target > 0.0 && spec.optimal_target < 1.0)) {
      throw std::invalid_argument("experiment: target in (0,1)");
    }
  } else if (key == "pairwise") {
    if (value == "gaussian") {
      spec.pairwise = core::PairwiseModel::kGaussian;
    } else if (value == "hybrid") {
      spec.pairwise = core::PairwiseModel::kHybrid;
    } else {
      throw std::invalid_argument("experiment: pairwise must be gaussian|hybrid");
    }
  } else if (key == "counting") {
    if (value == "paper") {
      spec.counting = core::PairCounting::kPaper;
    } else if (value == "unordered") {
      spec.counting = core::PairCounting::kUnordered;
    } else {
      throw std::invalid_argument("experiment: counting must be paper|unordered");
    }
  } else if (key == "exact-pairwise") {
    if (value == "gaussian") {
      spec.pairwise = core::PairwiseModel::kGaussian;
      spec.exact_discrete = false;
    } else if (value == "hybrid") {
      spec.pairwise = core::PairwiseModel::kHybrid;
      spec.exact_discrete = false;
    } else if (value == "exact-discrete") {
      spec.exact_discrete = true;
    } else {
      throw std::invalid_argument(
          "experiment: exact-pairwise must be gaussian|hybrid|exact-discrete");
    }
  } else if (key == "max-size") {
    const double parsed = key_double(key, value);
    spec.exact_max_size = std::llround(parsed);
    if (parsed != static_cast<double>(spec.exact_max_size) ||
        spec.exact_max_size < 2 || spec.exact_max_size > 8192) {
      // The table build is O(max-size^2) memory and O(max-size^3) work;
      // the cap keeps a typo from asking for terabytes. The C++ API
      // (core::DiscreteContextConfig) is uncapped.
      throw std::invalid_argument(
          "experiment: max-size must be an integer in [2, 8192]");
    }
  } else if (key == "tail-tol") {
    spec.exact_tail_tol = key_double(key, value);
    if (!(spec.exact_tail_tol > 0.0 && spec.exact_tail_tol < 1.0)) {
      throw std::invalid_argument("experiment: tail-tol in (0,1)");
    }
  } else if (key == "window") {
    spec.monitor.window_s = key_double(key, value);
    if (spec.monitor.window_s < 0.0) {
      throw std::invalid_argument("experiment: window >= 0 (0 = use bin)");
    }
    spec.monitor.window_given = true;
  } else if (key == "estimator") {
    spec.estimator = parse_estimator(value);
    spec.estimator_grammar = value;
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
          "experiment: mode must be batch|monitor|aggregate, got '" + value + "'");
    }
    // A `rate` given before the mode is as unknown as one given after it.
    if (spec.exact_rate_given && (spec.monitor.enabled || spec.aggregate.enabled)) {
      throw std::invalid_argument(unknown_key_message(spec, "rate"));
    }
  } else if (key == "snapshot-every") {
    spec.monitor.snapshot_every = key_uint(key, value);
    if (spec.monitor.snapshot_every < 1) {
      throw std::invalid_argument("experiment: snapshot-every >= 1");
    }
  } else if (key == "overload") {
    if (value == "block") {
      spec.monitor.shed = false;
    } else if (value == "shed") {
      spec.monitor.shed = true;
    } else {
      throw std::invalid_argument("experiment: overload must be block|shed, got '" +
                                  value + "'");
    }
  } else if (key == "ewma") {
    spec.monitor.ewma_alpha = key_double(key, value);
    if (!(spec.monitor.ewma_alpha > 0.0 && spec.monitor.ewma_alpha <= 1.0)) {
      throw std::invalid_argument("experiment: ewma must be in (0, 1]");
    }
  } else if (key == "budget") {
    spec.monitor.window_packet_budget = key_uint(key, value);
  } else if (key == "watchdog-ms") {
    spec.monitor.watchdog_ms = static_cast<std::uint32_t>(key_uint(key, value));
  } else if (key == "on-stall") {
    if (value == "rotate") {
      spec.monitor.fail_on_stall = false;
    } else if (value == "fail") {
      spec.monitor.fail_on_stall = true;
    } else {
      throw std::invalid_argument("experiment: on-stall must be rotate|fail, got '" +
                                  value + "'");
    }
  } else if (key.rfind("fault.", 0) == 0) {
    apply_fault_entry(spec.monitor.fault, key, value);
  } else if (key == "agents") {
    spec.aggregate.agents = key_uint(key, value);
    if (spec.aggregate.agents < 1) {
      throw std::invalid_argument("experiment: agents >= 1");
    }
  } else if (key == "split") {
    if (value == "flow") {
      spec.aggregate.split = agg::FleetSplit::kFlow;
    } else if (value == "packet") {
      spec.aggregate.split = agg::FleetSplit::kPacket;
    } else {
      throw std::invalid_argument("experiment: split must be flow|packet, got '" +
                                  value + "'");
    }
  } else if (key == "deadline-ms") {
    spec.aggregate.deadline_ms = static_cast<std::uint32_t>(key_uint(key, value));
  } else if (key == "quarantine-after") {
    spec.aggregate.quarantine_after = key_uint(key, value);
    if (spec.aggregate.quarantine_after < 1) {
      throw std::invalid_argument("experiment: quarantine-after >= 1");
    }
  } else if (key == "readmit-after") {
    spec.aggregate.readmit_after = key_uint(key, value);
    if (spec.aggregate.readmit_after < 1) {
      throw std::invalid_argument("experiment: readmit-after >= 1");
    }
  } else if (key == "summary") {
    if (value == "table") {
      spec.aggregate.summary = agg::SummaryKind::kFlowTable;
    } else if (value == "spacesaving") {
      spec.aggregate.summary = agg::SummaryKind::kSpaceSaving;
    } else {
      throw std::invalid_argument(
          "experiment: summary must be table|spacesaving, got '" + value + "'");
    }
  } else if (key == "summary-slots") {
    spec.aggregate.summary_slots = key_uint(key, value);
    if (spec.aggregate.summary_slots < 1) {
      throw std::invalid_argument("experiment: summary-slots >= 1");
    }
  } else if (key == "union-capacity") {
    spec.aggregate.union_capacity = key_uint(key, value);
  } else if (key.rfind("chan.", 0) == 0) {
    apply_chan_entry(spec.aggregate.chan, key, value);
  } else {
    throw std::invalid_argument(unknown_key_message(spec, key));
  }
}

namespace {
/// A relative trace file named in a spec file is relative to the spec
/// file's directory, so the spec runs from any working directory. The
/// generator names and absolute paths pass through.
std::string spec_relative_trace(const std::string& spec_path, const std::string& trace) {
  if (trace == "synthetic" || trace == "churn") return trace;
  const std::filesystem::path file(trace);
  if (file.is_absolute()) return trace;
  return (std::filesystem::path(spec_path).parent_path() / file).lexically_normal().string();
}
}  // namespace

ExperimentSpec parse_experiment_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw Error(ErrorCategory::kIo, "experiment", "cannot open " + path);
  }
  ExperimentSpec spec;
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
      apply_experiment_entry(spec, key, trim(line.substr(eq + 1)));
      if (key == "trace") spec.trace = spec_relative_trace(path, spec.trace);
    } catch (const std::invalid_argument& e) {
      // File, line and offending key up front; the entry's own message
      // carries the value diagnosis.
      throw Error(ErrorCategory::kSpec, path + ":" + std::to_string(line_no),
                  "key '" + key + "': " + e.what());
    }
  }
  try {
    check_mode_keys(spec);
  } catch (const std::invalid_argument& e) {
    throw Error(ErrorCategory::kSpec, path, "key 'window': " + std::string(e.what()));
  }
  return spec;
}

void check_mode_keys(const ExperimentSpec& spec) {
  if (spec.monitor.window_given && !spec.monitor.enabled) {
    throw std::invalid_argument(unknown_key_message(spec, "window"));
  }
}

void apply_experiment_overrides(ExperimentSpec& spec, const util::Cli& cli) {
  for (const std::string& key : experiment_keys()) {
    if (cli.has(key)) apply_experiment_entry(spec, key, cli.get_string(key, ""));
  }
  for (const std::string& name : cli.option_names()) {
    std::string param;
    if (sweep_key(name, param)) {
      set_axis(spec, param, cli.get_string(name, ""));
    }
  }
}

ExperimentSpec experiment_from_cli(const util::Cli& cli) {
  ExperimentSpec spec;
  const std::string file = cli.get_string("spec", "");
  if (!file.empty()) spec = parse_experiment_file(file);
  apply_experiment_overrides(spec, cli);
  return spec;
}

std::shared_ptr<const dist::FlowSizeDistribution> make_size_distribution(
    const ExperimentSpec& spec) {
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
  throw std::invalid_argument("experiment: preset=custom requires a dist= grammar");
}

namespace {

/// The spec's trace source before any fault wrapping.
std::shared_ptr<const trace::TraceSource> make_base_trace_source(
    const ExperimentSpec& spec) {
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
        throw std::invalid_argument("experiment: preset=custom requires flow-rate > 0");
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

std::shared_ptr<const trace::TraceSource> make_trace_source(
    const ExperimentSpec& spec) {
  auto source = make_base_trace_source(spec);
  // Fault injection only arms in monitor mode: batch figure runs keep
  // their clean traces even if a spec carries stray fault.* keys.
  if (spec.monitor.enabled && spec.monitor.fault.any()) {
    return std::make_shared<trace::FaultInjectingTraceSource>(std::move(source),
                                                              spec.monitor.fault);
  }
  return source;
}

SimConfig make_sim_config(const ExperimentSpec& spec) {
  if (spec.sampling_rates.empty()) {
    throw std::invalid_argument("experiment: at least one sampling rate");
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

monitor::MonitorConfig make_monitor_config(const ExperimentSpec& spec) {
  if (!spec.monitor.enabled) {
    throw std::invalid_argument(
        "experiment: make_monitor_config requires mode=monitor");
  }
  if (spec.sampling_rates.size() != 1) {
    throw std::invalid_argument(
        "experiment: mode=monitor needs exactly one sampling rate (rates=...), got " +
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

agg::FleetConfig make_fleet_config(const ExperimentSpec& spec) {
  if (!spec.aggregate.enabled) {
    throw std::invalid_argument(
        "experiment: make_fleet_config requires mode=aggregate");
  }
  if (spec.sampling_rates.size() != 1) {
    throw std::invalid_argument(
        "experiment: mode=aggregate needs exactly one sampling rate (rates=...), got " +
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

}  // namespace flowrank::sim
