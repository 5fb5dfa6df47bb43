// The spec grammar (key = value files, CLI overrides, sweep / dist /
// estimator sub-grammars) and the builders that turn a parsed
// ExperimentSpec into trace sources and engine configs. The engine that
// runs a spec lives in experiment.cpp.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
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

/// Replaces or appends the axis for `param` (last declaration wins, so a
/// CLI --sweep-rate override replaces the file's rate grid in place).
void set_axis(ExperimentSpec& spec, const std::string& param,
              const std::string& grammar) {
  check_sweep_param(param);
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

// --- the key table -----------------------------------------------------------

/// A key's mode family: base keys are read in every mode, a family key
/// only in its own (batch is the default mode, which no key has to set).
enum Family { kBase, kBatch, kMonitor, kAggregate };

constexpr Spelling<Family> kModeSpellings[] = {{"batch", kBatch},
                                               {"monitor", kMonitor},
                                               {"aggregate", kAggregate}};

/// exact-pairwise: a continuous pairwise model, or none for the
/// integer-support discrete model.
constexpr Spelling<std::optional<core::PairwiseModel>> kExactPairwiseSpellings[] = {
    {"gaussian", core::PairwiseModel::kGaussian},
    {"hybrid", core::PairwiseModel::kHybrid},
    {"exact-discrete", std::nullopt}};

Family active_mode(const ExperimentSpec& spec) {
  return spec.aggregate.enabled ? kAggregate
         : spec.monitor.enabled ? kMonitor
                                : kBatch;
}

/// One key = value entry as its setter sees it, with the value parses the
/// setters share. Every error names the key.
struct Entry {
  const std::string& key;
  const std::string& value;

  double real() const { return key_double(key, value); }
  std::uint64_t count() const { return key_uint(key, value); }

  /// count(), narrowed to T; a value above T's range throws
  /// flowrank::Error naming the key instead of wrapping.
  template <typename T>
  T narrow() const {
    const std::uint64_t parsed = count();
    constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    if (parsed > kMax) {
      throw Error(ErrorCategory::kSpec, "experiment",
                  "key '" + key + "' must be at most " + std::to_string(kMax) + ", got '" +
                      value + "'");
    }
    return static_cast<T>(parsed);
  }

  std::uint64_t positive() const {
    const std::uint64_t parsed = count();
    if (parsed < 1) throw std::invalid_argument("experiment: " + key + " >= 1");
    return parsed;
  }

  double fraction() const {
    const double parsed = real();
    if (!(parsed >= 0.0 && parsed <= 1.0)) {
      throw std::invalid_argument("experiment: key '" + key +
                                  "' must be a fraction in [0, 1]");
    }
    return parsed;
  }

  /// A thread or shard count: the sanity cap is validated up front, and
  /// 0 (all hardware threads) stays symbolic.
  std::size_t parallelism() const {
    const std::size_t resolved = exec::TaskPool::resolve_parallelism(count());
    return value == "0" ? 0 : resolved;
  }

  template <typename T, std::size_t N>
  T spelled(const Spelling<T> (&table)[N]) const {
    std::string options;
    for (const auto& entry : table) {
      if (value == entry.text) return entry.value;
      if (!options.empty()) options += '|';
      options += entry.text;
    }
    throw std::invalid_argument("experiment: " + key + " must be " + options +
                                ", got '" + value + "'");
  }
};

using Spec = ExperimentSpec;

struct KeyRow {
  const char* name;
  Family family;
  void (*set)(Spec& spec, const Entry& entry);
};

/// Every spec key, declared once: its name, its mode family and its
/// setter, which validates the value.
constexpr KeyRow kKeys[] = {
    // --- base -----------------------------------------------------------------
    {"name", kBase, [](Spec& s, const Entry& e) { s.name = e.value; }},
    {"description", kBase, [](Spec& s, const Entry& e) { s.description = e.value; }},
    {"model", kBase,
     [](Spec& s, const Entry& e) { s.model = e.spelled(kModelSpellings); }},
    {"mode", kBase,
     [](Spec& s, const Entry& e) {
       const Family mode = e.spelled(kModeSpellings);
       s.monitor.enabled = mode == kMonitor;
       s.aggregate.enabled = mode == kAggregate;
       // A family key set before the mode is held to it too.
       check_mode_keys(s);
     }},
    {"trace", kBase, [](Spec& s, const Entry& e) { s.trace = e.value; }},
    {"preset", kBase,
     [](Spec& s, const Entry& e) {
       if (e.value != "sprint_5tuple" && e.value != "sprint_prefix24" &&
           e.value != "abilene" && e.value != "custom") {
         throw std::invalid_argument("experiment: unknown preset '" + e.value + "'");
       }
       s.preset = e.value;
     }},
    {"beta", kBase, [](Spec& s, const Entry& e) { s.beta = e.real(); }},
    {"dist", kBase, [](Spec& s, const Entry& e) { s.dist = e.value; }},
    {"duration", kBase, [](Spec& s, const Entry& e) { s.duration_s = e.real(); }},
    {"flow-rate", kBase, [](Spec& s, const Entry& e) { s.flow_rate_per_s = e.real(); }},
    {"flow-rate-scale", kBase,
     [](Spec& s, const Entry& e) { s.flow_rate_scale = e.real(); }},
    {"trace-seed", kBase, [](Spec& s, const Entry& e) { s.trace_seed = e.count(); }},
    {"packet-size", kBase,
     [](Spec& s, const Entry& e) {
       s.packet_size_bytes = e.narrow<std::uint32_t>();
     }},
    {"epochs", kBase, [](Spec& s, const Entry& e) { s.epochs = e.positive(); }},
    {"epoch-gap", kBase, [](Spec& s, const Entry& e) { s.epoch_gap_s = e.real(); }},
    {"onoff", kBase, [](Spec& s, const Entry& e) { s.on_off = parse_onoff(e.value); }},
    {"churn", kBase, [](Spec& s, const Entry& e) { s.churn = parse_churn(e.value); }},
    {"bin", kBase, [](Spec& s, const Entry& e) { s.bin_seconds = e.real(); }},
    {"t", kBase, [](Spec& s, const Entry& e) { s.top_t = e.count(); }},
    {"rates", kBase,
     [](Spec& s, const Entry& e) {
       s.sampling_rates.clear();
       for (const auto& rate : split(e.value, ',')) {
         s.sampling_rates.push_back(key_double(e.key, rate));
       }
     }},
    {"runs", kBase,
     [](Spec& s, const Entry& e) { s.runs = e.narrow<int>(); }},
    {"seed", kBase, [](Spec& s, const Entry& e) { s.seed = e.count(); }},
    {"ties", kBase,
     [](Spec& s, const Entry& e) { s.tie_policy = e.spelled(kTieSpellings); }},
    {"definition", kBase,
     [](Spec& s, const Entry& e) { s.definition = e.spelled(kDefinitionSpellings); }},
    {"threads", kBase, [](Spec& s, const Entry& e) { s.num_threads = e.parallelism(); }},
    {"shards", kBase, [](Spec& s, const Entry& e) { s.num_shards = e.parallelism(); }},
    {"estimator", kBase,
     [](Spec& s, const Entry& e) {
       s.estimator = parse_estimator(e.value);
       s.estimator_grammar = e.value;
     }},
    {"metric", kBase,
     [](Spec& s, const Entry& e) { s.metric = e.spelled(kMetricSpellings); }},
    {"n", kBase,
     [](Spec& s, const Entry& e) {
       s.exact_n = std::llround(e.real());
       if (s.exact_n < 1) throw std::invalid_argument("experiment: n >= 1");
     }},
    {"target", kBase,
     [](Spec& s, const Entry& e) {
       s.optimal_target = e.real();
       if (!(s.optimal_target > 0.0 && s.optimal_target < 1.0)) {
         throw std::invalid_argument("experiment: target in (0,1)");
       }
     }},
    {"pairwise", kBase,
     [](Spec& s, const Entry& e) { s.pairwise = e.spelled(kPairwiseSpellings); }},
    {"counting", kBase,
     [](Spec& s, const Entry& e) { s.counting = e.spelled(kCountingSpellings); }},
    {"exact-pairwise", kBase,
     [](Spec& s, const Entry& e) {
       const auto pairwise = e.spelled(kExactPairwiseSpellings);
       s.exact_discrete = !pairwise;
       if (pairwise) s.pairwise = *pairwise;
     }},
    {"max-size", kBase,
     [](Spec& s, const Entry& e) {
       const double parsed = e.real();
       s.exact_max_size = std::llround(parsed);
       if (parsed != static_cast<double>(s.exact_max_size) || s.exact_max_size < 2 ||
           s.exact_max_size > 8192) {
         // The context build is O(max-size^2) time and O(max-size) memory
         // (core/discrete_context.hpp): the cap keeps a typo such as
         // max-size = 1e9 from asking for ~1e18 steps. The C++ API
         // (core::DiscreteContextConfig) is uncapped.
         throw std::invalid_argument(
             "experiment: max-size must be an integer in [2, 8192]");
       }
     }},
    {"tail-tol", kBase,
     [](Spec& s, const Entry& e) {
       s.exact_tail_tol = e.real();
       if (!(s.exact_tail_tol > 0.0 && s.exact_tail_tol < 1.0)) {
         throw std::invalid_argument("experiment: tail-tol in (0,1)");
       }
     }},

    // --- batch: the exact model's fixed rate (the monitor and the fleet
    // sample at `rates`) ----------------------------------------------------
    {"rate", kBatch,
     [](Spec& s, const Entry& e) {
       s.exact_rate = e.real();
       if (!(s.exact_rate > 0.0 && s.exact_rate <= 1.0)) {
         throw std::invalid_argument("experiment: rate in (0,1]");
       }
     }},

    // --- monitor -------------------------------------------------------------
    {"window", kMonitor,
     [](Spec& s, const Entry& e) {
       s.monitor.window_s = e.real();
       if (s.monitor.window_s < 0.0) {
         throw std::invalid_argument("experiment: window >= 0 (0 = use bin)");
       }
     }},
    {"snapshot-every", kMonitor,
     [](Spec& s, const Entry& e) { s.monitor.snapshot_every = e.positive(); }},
    {"overload", kMonitor,
     [](Spec& s, const Entry& e) { s.monitor.shed = e.spelled(kOverloadSpellings); }},
    {"ewma", kMonitor,
     [](Spec& s, const Entry& e) {
       s.monitor.ewma_alpha = e.real();
       if (!(s.monitor.ewma_alpha > 0.0 && s.monitor.ewma_alpha <= 1.0)) {
         throw std::invalid_argument("experiment: ewma must be in (0, 1]");
       }
     }},
    {"budget", kMonitor,
     [](Spec& s, const Entry& e) { s.monitor.window_packet_budget = e.count(); }},
    {"watchdog-ms", kMonitor,
     [](Spec& s, const Entry& e) {
       s.monitor.watchdog_ms = e.narrow<std::uint32_t>();
     }},
    {"on-stall", kMonitor,
     [](Spec& s, const Entry& e) {
       s.monitor.fail_on_stall = e.spelled(kOnStallSpellings);
     }},
    {"fault.corrupt", kMonitor,
     [](Spec& s, const Entry& e) { s.monitor.fault.corrupt_fraction = e.real(); }},
    {"fault.truncate", kMonitor,
     [](Spec& s, const Entry& e) { s.monitor.fault.truncate_fraction = e.real(); }},
    {"fault.stall-every", kMonitor,
     [](Spec& s, const Entry& e) { s.monitor.fault.stall_every_batches = e.count(); }},
    {"fault.stall-ms", kMonitor,
     [](Spec& s, const Entry& e) {
       s.monitor.fault.stall_ms = e.narrow<std::uint32_t>();
     }},
    {"fault.burst-flows", kMonitor,
     [](Spec& s, const Entry& e) { s.monitor.fault.burst_flows = e.count(); }},
    {"fault.burst-every", kMonitor,
     [](Spec& s, const Entry& e) { s.monitor.fault.burst_every_s = e.real(); }},
    {"fault.burst-duration", kMonitor,
     [](Spec& s, const Entry& e) { s.monitor.fault.burst_duration_s = e.real(); }},
    {"fault.seed", kMonitor,
     [](Spec& s, const Entry& e) { s.monitor.fault.seed = e.count(); }},

    // --- aggregate -----------------------------------------------------------
    {"agents", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.agents = e.positive(); }},
    {"split", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.split = e.spelled(kSplitSpellings); }},
    {"deadline-ms", kAggregate,
     [](Spec& s, const Entry& e) {
       s.aggregate.deadline_ms = e.narrow<std::uint32_t>();
     }},
    {"quarantine-after", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.quarantine_after = e.positive(); }},
    {"readmit-after", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.readmit_after = e.positive(); }},
    {"summary", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.summary = e.spelled(kSummarySpellings); }},
    {"summary-slots", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.summary_slots = e.positive(); }},
    {"union-capacity", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.union_capacity = e.count(); }},
    {"chan.drop", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.chan.drop_fraction = e.fraction(); }},
    {"chan.corrupt", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.chan.corrupt_fraction = e.fraction(); }},
    {"chan.delay", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.chan.delay_fraction = e.fraction(); }},
    {"chan.delay-windows", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.chan.delay_windows = e.positive(); }},
    {"chan.duplicate", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.chan.duplicate_fraction = e.fraction(); }},
    {"chan.outage-agent", kAggregate,
     [](Spec& s, const Entry& e) {
       s.aggregate.chan.outage_agent = e.narrow<std::uint32_t>();
     }},
    {"chan.outage-from", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.chan.outage_from = e.count(); }},
    {"chan.outage-windows", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.chan.outage_windows = e.count(); }},
    {"chan.seed", kAggregate,
     [](Spec& s, const Entry& e) { s.aggregate.chan.seed = e.count(); }},
};

const KeyRow* find_key(const std::string& key) {
  for (const KeyRow& row : kKeys) {
    if (key == row.name) return &row;
  }
  return nullptr;
}

/// "unknown key 'x' (valid keys for mode=monitor: ...)": the base keys
/// plus the active mode's family, sorted, so a typo points at the right
/// family.
std::string unknown_key_message(const ExperimentSpec& spec, const std::string& key) {
  const Family mode = active_mode(spec);
  std::vector<std::string> keys;
  for (const KeyRow& row : kKeys) {
    if (row.family == kBase || row.family == mode) keys.emplace_back(row.name);
  }
  std::sort(keys.begin(), keys.end());
  std::string message = "experiment: unknown key '" + key + "' (valid keys for mode=" +
                        spelling(kModeSpellings, mode) + ": ";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) message += ", ";
    message += keys[i];
  }
  message += "; plus sweep <param>)";
  return message;
}

/// The first family key the spec set that its current mode does not read.
const std::string* stray_family_key(const ExperimentSpec& spec) {
  for (const std::string& key : spec.family_keys) {
    const KeyRow* row = find_key(key);
    if (row == nullptr || row->family != active_mode(spec)) return &key;
  }
  return nullptr;
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
    std::vector<std::string> all;
    for (const KeyRow& row : kKeys) all.emplace_back(row.name);
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
    return;
  }
  // Until a mode is set every family key is taken, since the mode may
  // still come; once it is, another family's key is as unknown as a typo.
  const KeyRow* row = find_key(key);
  const Family mode = active_mode(spec);
  if (row == nullptr || (row->family != kBase && mode != kBatch &&
                         row->family != mode)) {
    throw std::invalid_argument(unknown_key_message(spec, key));
  }
  row->set(spec, Entry{key, value});
  if (row->family != kBase &&
      std::find(spec.family_keys.begin(), spec.family_keys.end(), key) ==
          spec.family_keys.end()) {
    spec.family_keys.push_back(key);
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
    } catch (const std::invalid_argument& e) {
      // File, line and offending key up front; the entry's own message
      // carries the value diagnosis.
      throw Error(ErrorCategory::kSpec, path + ":" + std::to_string(line_no),
                  "key '" + key + "': " + e.what());
    } catch (const Error& e) {
      // An entry's own spec Error (a count beyond its field's range)
      // already names the key; it gains the file and line.
      if (e.category() != ErrorCategory::kSpec) throw;
      throw Error(ErrorCategory::kSpec, path + ":" + std::to_string(line_no), e.message());
    }
  }
  if (const std::string* key = stray_family_key(spec)) {
    throw Error(ErrorCategory::kSpec, path,
                "key '" + *key + "': " + unknown_key_message(spec, *key));
  }
  spec.trace = spec_relative_trace(path, spec.trace);
  return spec;
}

void check_mode_keys(const ExperimentSpec& spec) {
  if (const std::string* key = stray_family_key(spec)) {
    throw std::invalid_argument(unknown_key_message(spec, *key));
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
  // Fault injection only arms in monitor mode. The grammar refuses
  // fault.* keys in other modes, but a spec built in code can still set
  // MonitorOptions::fault; batch figure runs keep their clean traces.
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
