#include "flowrank/sim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "flowrank/core/detection_model.hpp"
#include "flowrank/core/discrete_context.hpp"
#include "flowrank/core/misranking.hpp"
#include "flowrank/core/optimal_rate.hpp"
#include "flowrank/dist/discretized.hpp"
#include "flowrank/exec/task_pool.hpp"

namespace flowrank::sim {

namespace {

/// Doubles in spec echoes use the sinks' own cell formatting, so echoed
/// values round-trip exactly like result cells.
std::string format_value(double value) { return report::Value(value).text(); }

/// One grid cell: the spec with the cell's axis values applied, plus the
/// exact model's (s1, s2) size pair, which only sweep axes set.
struct SweepCell {
  ExperimentSpec spec;
  double s1 = 0.0;
  double s2 = 0.0;
};

/// A sweepable parameter, declared once: its name, whether result rows
/// print it as an integer, and how a grid cell applies one value.
struct SweepParam {
  const char* name;
  bool integer;
  void (*apply)(SweepCell& cell, double value);
};

constexpr SweepParam kSweepTable[] = {
    {"rate", false, [](SweepCell& c, double v) { c.spec.exact_rate = v; }},
    {"t", true,
     [](SweepCell& c, double v) {
       c.spec.top_t = static_cast<std::size_t>(std::llround(v));
     }},
    {"n", true, [](SweepCell& c, double v) { c.spec.exact_n = std::llround(v); }},
    {"beta", false, [](SweepCell& c, double v) { c.spec.beta = v; }},
    {"bin", false, [](SweepCell& c, double v) { c.spec.bin_seconds = v; }},
    {"duration", false, [](SweepCell& c, double v) { c.spec.duration_s = v; }},
    {"s1", true, [](SweepCell& c, double v) { c.s1 = v; }},
    {"s2", true, [](SweepCell& c, double v) { c.s2 = v; }},
};

const SweepParam& sweep_param(const std::string& name) {
  for (const SweepParam& param : kSweepTable) {
    if (name == param.name) return param;
  }
  std::string names;
  for (const SweepParam& param : kSweepTable) {
    if (!names.empty()) names += '|';
    names += param.name;
  }
  throw std::invalid_argument("experiment: unknown sweep parameter '" + name + "' (" +
                              names + ")");
}

/// Per-model sweepable-axis whitelist; a violation is a spec bug and
/// fails before any output is written.
void check_axes(const ExperimentSpec& spec) {
  const auto allowed = [&spec](const std::string& param) {
    switch (spec.model) {
      case ExperimentModel::kExact:
        switch (spec.metric) {
          case ExactMetric::kRanking:
          case ExactMetric::kDetection:
            return param == "rate" || param == "t" || param == "n" ||
                   param == "beta";
          case ExactMetric::kOptimalRate:
            return param == "s1" || param == "s2";
          case ExactMetric::kGaussianError:
            return param == "s1" || param == "s2" || param == "rate";
        }
        return false;
      case ExperimentModel::kMc:
      case ExperimentModel::kPacket:
        return param == "rate" || param == "t" || param == "beta" ||
               param == "bin" || param == "duration";
    }
    return false;
  };
  for (const auto& axis : spec.sweeps) {
    if (!allowed(axis.param)) {
      throw std::invalid_argument(
          std::string("experiment: sweep '") + axis.param +
          "' is not valid for model=" + spelling(kModelSpellings, spec.model) +
          (spec.model == ExperimentModel::kExact
               ? std::string(" metric=") + spelling(kMetricSpellings, spec.metric)
               : std::string()));
    }
    if (axis.values.empty()) {
      throw std::invalid_argument("experiment: sweep '" + axis.param +
                                  "' has no values");
    }
  }
  if (spec.model == ExperimentModel::kExact) {
    const auto has = [&spec](const char* param) {
      for (const auto& axis : spec.sweeps) {
        if (axis.param == param) return true;
      }
      return false;
    };
    if ((spec.metric == ExactMetric::kOptimalRate ||
         spec.metric == ExactMetric::kGaussianError) &&
        (!has("s1") || !has("s2"))) {
      throw std::invalid_argument(std::string("experiment: metric=") +
                                  spelling(kMetricSpellings, spec.metric) +
                                  " needs sweep s1 and sweep s2");
    }
  }
  if (spec.estimator.kind != EstimatorStage::Kind::kNone &&
      spec.model != ExperimentModel::kPacket) {
    throw std::invalid_argument(
        "experiment: estimator stages need model=packet");
  }
  if (spec.exact_discrete && (spec.model != ExperimentModel::kExact ||
                              spec.metric != ExactMetric::kRanking)) {
    throw std::invalid_argument(
        "experiment: exact-pairwise=exact-discrete needs model=exact "
        "metric=ranking");
  }
  if (spec.monitor.enabled) {
    if (spec.model != ExperimentModel::kPacket) {
      throw std::invalid_argument("experiment: mode=monitor needs model=packet");
    }
    if (!spec.sweeps.empty()) {
      throw std::invalid_argument(
          "experiment: mode=monitor is a single continuous run, not a sweep; "
          "drop the sweep axes");
    }
    if (spec.estimator.kind != EstimatorStage::Kind::kNone) {
      throw std::invalid_argument(
          "experiment: mode=monitor has inversion + EWMA built in; estimator "
          "stages are batch-only");
    }
  }
  if (spec.aggregate.enabled) {
    if (spec.model != ExperimentModel::kPacket) {
      throw std::invalid_argument("experiment: mode=aggregate needs model=packet");
    }
    if (!spec.sweeps.empty()) {
      throw std::invalid_argument(
          "experiment: mode=aggregate is a single fleet run, not a sweep; "
          "drop the sweep axes");
    }
    if (spec.estimator.kind != EstimatorStage::Kind::kNone) {
      throw std::invalid_argument(
          "experiment: mode=aggregate merges per-agent summaries; estimator "
          "stages are batch-only");
    }
  }
}

/// The grid axes that index rows (mc/packet fold a rate sweep into the
/// rates list instead — rate is an inner dimension of those engines).
std::vector<SweepAxis> grid_axes(const ExperimentSpec& spec) {
  std::vector<SweepAxis> axes;
  for (const auto& axis : spec.sweeps) {
    if (spec.model != ExperimentModel::kExact && axis.param == "rate") continue;
    axes.push_back(axis);
  }
  return axes;
}

std::size_t grid_size(const std::vector<SweepAxis>& axes) {
  std::size_t total = 1;
  for (const auto& axis : axes) total *= axis.values.size();
  return total;
}

/// Row-major unravel of grid cell `index` into per-axis values.
std::vector<double> cell_values(const std::vector<SweepAxis>& axes,
                                std::size_t index) {
  std::vector<double> values(axes.size());
  for (std::size_t a = axes.size(); a-- > 0;) {
    const std::size_t n = axes[a].values.size();
    values[a] = axes[a].values[index % n];
    index /= n;
  }
  return values;
}

void push_axis_cells(report::Row& row, const std::vector<SweepAxis>& axes,
                     const std::vector<double>& values) {
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (sweep_param(axes[a].param).integer) {
      row.emplace_back(static_cast<std::int64_t>(std::llround(values[a])));
    } else {
      row.emplace_back(values[a]);
    }
  }
}

/// The grid cell at `values`, one per axis.
SweepCell sweep_cell(const ExperimentSpec& base, const std::vector<SweepAxis>& axes,
                     const std::vector<double>& values) {
  SweepCell cell{base};
  for (std::size_t a = 0; a < axes.size(); ++a) {
    sweep_param(axes[a].param).apply(cell, values[a]);
  }
  return cell;
}

/// The trace-shaping subset of the spec: cells that agree on it share one
/// materialized trace (e.g. the two bin lengths of a paper figure).
std::string trace_cache_key(const ExperimentSpec& spec) {
  std::ostringstream key;
  key << spec.trace << '|' << spec.preset << '|' << format_value(spec.beta) << '|'
      << spec.dist << '|' << format_value(spec.duration_s) << '|'
      << format_value(spec.flow_rate_per_s) << '|'
      << format_value(spec.flow_rate_scale) << '|' << spec.trace_seed << '|'
      << spec.packet_size_bytes << '|' << spec.epochs << '|'
      << format_value(spec.epoch_gap_s) << '|' << spec.on_off.enabled << '|'
      << format_value(spec.on_off.mean_on_s) << '|'
      << format_value(spec.on_off.mean_off_s) << '|'
      << format_value(spec.on_off.on_factor) << '|'
      << format_value(spec.on_off.off_factor);
  return key.str();
}

/// The context-shaping subset of an exact-discrete cell: cells that agree
/// on it share one core::DiscreteModelContext — its sums depend on the
/// size pmf, the sampling rate and the discrete knobs, but not on n or t,
/// so (n, t) sweeps pay for them exactly once.
using DiscreteContextCache =
    std::map<std::string, std::shared_ptr<const core::DiscreteModelContext>>;

std::string discrete_context_key(const ExperimentSpec& cell) {
  std::ostringstream key;
  key << cell.preset << '|' << cell.dist << '|' << format_value(cell.beta) << '|'
      << format_value(cell.exact_rate) << '|' << cell.exact_max_size << '|'
      << format_value(cell.exact_tail_tol);
  return key.str();
}

report::Row exact_cell_row(const ExperimentSpec& spec,
                           const std::vector<SweepAxis>& axes,
                           std::size_t index,
                           const DiscreteContextCache& discrete_contexts) {
  const auto values = cell_values(axes, index);
  const SweepCell swept = sweep_cell(spec, axes, values);
  const ExperimentSpec& cell = swept.spec;

  report::Row row;
  push_axis_cells(row, axes, values);
  switch (spec.metric) {
    case ExactMetric::kRanking:
    case ExactMetric::kDetection: {
      if (spec.exact_discrete) {
        // check_axes pinned metric=ranking; the context was prebuilt by
        // run_experiment, so this lookup cannot miss.
        const auto& context = discrete_contexts.at(discrete_context_key(cell));
        const auto result = context->evaluate(
            cell.exact_n, static_cast<std::int64_t>(cell.top_t));
        row.emplace_back(result.mean_pair_misranking);
        row.emplace_back(result.metric);
        // The paper's ordered pair count, as in the continuous model.
        const double n_d = static_cast<double>(cell.exact_n);
        const double t_d = static_cast<double>(cell.top_t);
        row.emplace_back(0.5 * (2.0 * n_d - t_d - 1.0) * t_d);
        break;
      }
      core::RankingModelConfig cfg;
      cfg.n = cell.exact_n;
      cfg.t = static_cast<std::int64_t>(cell.top_t);
      cfg.p = cell.exact_rate;
      cfg.size_dist = make_size_distribution(cell);
      cfg.pairwise = cell.pairwise;
      cfg.counting = cell.counting;
      if (spec.metric == ExactMetric::kRanking) {
        const auto result = core::evaluate_ranking_model(cfg);
        row.emplace_back(result.mean_pair_misranking);
        row.emplace_back(result.metric);
        row.emplace_back(result.pair_count);
      } else {
        const auto result = core::evaluate_detection_model(cfg);
        row.emplace_back(result.mean_pair_misranking);
        row.emplace_back(result.metric);
        row.emplace_back(result.pair_count);
      }
      break;
    }
    case ExactMetric::kOptimalRate: {
      const double rate = core::optimal_sampling_rate(
          std::llround(swept.s1), std::llround(swept.s2), cell.optimal_target);
      row.emplace_back(rate * 100.0);
      break;
    }
    case ExactMetric::kGaussianError: {
      row.emplace_back(core::misranking_abs_error(std::llround(swept.s1),
                                                  std::llround(swept.s2),
                                                  cell.exact_rate));
      break;
    }
  }
  return row;
}

}  // namespace

void check_sweep_param(const std::string& param) { (void)sweep_param(param); }

std::vector<std::pair<std::string, std::string>> experiment_echo(
    const ExperimentSpec& spec) {
  std::vector<std::pair<std::string, std::string>> echo;
  const auto add = [&echo](const std::string& key, const std::string& value) {
    echo.emplace_back(key, value);
  };
  add("model", spelling(kModelSpellings, spec.model));
  if (!spec.description.empty()) add("description", spec.description);

  if (spec.model == ExperimentModel::kExact) {
    add("metric", spelling(kMetricSpellings, spec.metric));
    if (spec.metric == ExactMetric::kRanking ||
        spec.metric == ExactMetric::kDetection) {
      add("n", std::to_string(spec.exact_n));
      add("preset", spec.preset);
      if (!spec.dist.empty()) add("dist", spec.dist);
      add("beta", format_value(spec.beta));
      add("t", std::to_string(spec.top_t));
      if (spec.exact_discrete) {
        add("exact-pairwise", "exact-discrete");
        add("max-size", std::to_string(spec.exact_max_size));
        add("tail-tol", format_value(spec.exact_tail_tol));
      } else {
        add("pairwise", spelling(kPairwiseSpellings, spec.pairwise));
        add("counting", spelling(kCountingSpellings, spec.counting));
      }
    }
    if (spec.metric == ExactMetric::kOptimalRate) {
      add("target", format_value(spec.optimal_target));
    }
    if (spec.metric == ExactMetric::kGaussianError ||
        spec.metric == ExactMetric::kRanking ||
        spec.metric == ExactMetric::kDetection) {
      add("rate", format_value(spec.exact_rate));
    }
  } else {
    add("trace", spec.trace);
    add("preset", spec.preset);
    if (!spec.dist.empty()) add("dist", spec.dist);
    add("beta", format_value(spec.beta));
    add("duration", format_value(spec.duration_s));
    if (spec.flow_rate_per_s > 0.0) {
      add("flow-rate", format_value(spec.flow_rate_per_s));
    }
    add("flow-rate-scale", format_value(spec.flow_rate_scale));
    add("trace-seed", std::to_string(spec.trace_seed));
    add("packet-size", std::to_string(spec.packet_size_bytes));
    if (spec.epochs > 1) {
      add("epochs", std::to_string(spec.epochs));
      add("epoch-gap", format_value(spec.epoch_gap_s));
    }
    if (spec.on_off.enabled) {
      add("onoff", "on=" + format_value(spec.on_off.mean_on_s) +
                       ",off=" + format_value(spec.on_off.mean_off_s) +
                       ",on-factor=" + format_value(spec.on_off.on_factor) +
                       ",off-factor=" + format_value(spec.on_off.off_factor));
    }
    if (spec.trace == "churn") {
      add("churn", "population=" + std::to_string(spec.churn.population) +
                       ",rate=" + format_value(spec.churn.churn_per_s) +
                       ",packets=" + format_value(spec.churn.mean_packets) +
                       ",flow-duration=" + format_value(spec.churn.mean_duration_s) +
                       ",tcp=" + format_value(spec.churn.tcp_fraction));
    }
    add("bin", format_value(spec.bin_seconds));
    add("t", std::to_string(spec.top_t));
    // A `sweep rate` axis replaces the rates list on these models, so
    // the echo records the rates actually run, not the superseded list.
    const std::vector<double>* effective_rates = &spec.sampling_rates;
    for (const auto& axis : spec.sweeps) {
      if (axis.param == "rate") effective_rates = &axis.values;
    }
    std::string rates;
    for (const double rate : *effective_rates) {
      if (!rates.empty()) rates += ',';
      rates += format_value(rate);
    }
    add("rates", rates);
    // threads/shards are deliberately absent: they never change result
    // values (the engines' bit-identity contract), so result files stay
    // byte-identical at any parallelism.
    if (spec.model == ExperimentModel::kMc) {
      add("runs", std::to_string(spec.runs));
    } else {
      add("estimator", spec.estimator_grammar);
    }
    add("ties", spelling(kTieSpellings, spec.tie_policy));
    add("definition", spelling(kDefinitionSpellings, spec.definition));
    if (spec.monitor.enabled) {
      add("mode", "monitor");
      add("window", format_value(spec.monitor.window_s > 0.0
                                     ? spec.monitor.window_s
                                     : spec.bin_seconds));
      add("snapshot-every", std::to_string(spec.monitor.snapshot_every));
      add("overload", spelling(kOverloadSpellings, spec.monitor.shed));
      add("ewma", format_value(spec.monitor.ewma_alpha));
      if (spec.monitor.window_packet_budget > 0) {
        add("budget", std::to_string(spec.monitor.window_packet_budget));
      }
      if (spec.monitor.watchdog_ms > 0) {
        add("watchdog-ms", std::to_string(spec.monitor.watchdog_ms));
        add("on-stall", spelling(kOnStallSpellings, spec.monitor.fail_on_stall));
      }
      const trace::FaultSpec& fault = spec.monitor.fault;
      if (fault.corrupt_fraction > 0.0) {
        add("fault.corrupt", format_value(fault.corrupt_fraction));
      }
      if (fault.truncate_fraction > 0.0) {
        add("fault.truncate", format_value(fault.truncate_fraction));
      }
      if (fault.stall_every_batches > 0) {
        add("fault.stall-every", std::to_string(fault.stall_every_batches));
        add("fault.stall-ms", std::to_string(fault.stall_ms));
      }
      if (fault.burst_flows > 0) {
        add("fault.burst-flows", std::to_string(fault.burst_flows));
        add("fault.burst-every", format_value(fault.burst_every_s));
        add("fault.burst-duration", format_value(fault.burst_duration_s));
      }
      if (fault.any()) add("fault.seed", std::to_string(fault.seed));
    }
    if (spec.aggregate.enabled) {
      const AggregateOptions& agg_opts = spec.aggregate;
      add("mode", "aggregate");
      add("agents", std::to_string(agg_opts.agents));
      add("split", spelling(kSplitSpellings, agg_opts.split));
      add("deadline-ms", std::to_string(agg_opts.deadline_ms));
      add("quarantine-after", std::to_string(agg_opts.quarantine_after));
      add("readmit-after", std::to_string(agg_opts.readmit_after));
      add("summary", spelling(kSummarySpellings, agg_opts.summary));
      if (agg_opts.summary == agg::SummaryKind::kSpaceSaving) {
        add("summary-slots", std::to_string(agg_opts.summary_slots));
      }
      if (agg_opts.union_capacity > 0) {
        add("union-capacity", std::to_string(agg_opts.union_capacity));
      }
      const agg::SummaryFaultSpec& chan = agg_opts.chan;
      if (chan.drop_fraction > 0.0) add("chan.drop", format_value(chan.drop_fraction));
      if (chan.corrupt_fraction > 0.0) {
        add("chan.corrupt", format_value(chan.corrupt_fraction));
      }
      if (chan.delay_fraction > 0.0) {
        add("chan.delay", format_value(chan.delay_fraction));
        add("chan.delay-windows", std::to_string(chan.delay_windows));
      }
      if (chan.duplicate_fraction > 0.0) {
        add("chan.duplicate", format_value(chan.duplicate_fraction));
      }
      if (chan.outage_agent != agg::SummaryFaultSpec::kNoAgent) {
        add("chan.outage-agent", std::to_string(chan.outage_agent));
        add("chan.outage-from", std::to_string(chan.outage_from));
        add("chan.outage-windows", std::to_string(chan.outage_windows));
      }
      if (chan.any()) add("chan.seed", std::to_string(chan.seed));
    }
  }
  add("seed", std::to_string(spec.seed));
  for (const auto& axis : spec.sweeps) {
    add("sweep " + axis.param, axis.grammar);
  }
  return echo;
}

std::vector<std::string> experiment_columns(const ExperimentSpec& spec) {
  if (spec.aggregate.enabled) return agg::window_columns();
  if (spec.monitor.enabled) return monitor::snapshot_columns();
  std::vector<std::string> columns;
  for (const auto& axis : grid_axes(spec)) columns.push_back(axis.param);
  switch (spec.model) {
    case ExperimentModel::kExact:
      switch (spec.metric) {
        case ExactMetric::kRanking:
        case ExactMetric::kDetection:
          columns.insert(columns.end(),
                         {"mean_pair_misranking", "metric", "pair_count"});
          break;
        case ExactMetric::kOptimalRate:
          columns.push_back("optimal_rate_pct");
          break;
        case ExactMetric::kGaussianError:
          columns.push_back("abs_error");
          break;
      }
      break;
    case ExperimentModel::kMc:
      columns.insert(columns.end(),
                     {"rate", "time_s", "flows", "ranking_mean", "ranking_std",
                      "detection_mean", "detection_std", "recall_mean"});
      break;
    case ExperimentModel::kPacket:
      columns.insert(columns.end(), {"rate", "time_s", "flows", "ranking_swapped",
                                     "detection_swapped", "recall"});
      break;
  }
  return columns;
}

std::size_t run_experiment(const ExperimentSpec& spec, report::ResultSink& sink) {
  check_mode_keys(spec);
  check_axes(spec);

  if (spec.aggregate.enabled) {
    // Multi-vantage mode: one fleet run, one row per aggregation window.
    // Windows close in epoch order, so rows stream already ordered; the
    // fleet's own determinism (canonical summaries, order-insensitive
    // merges, seeded channel faults) keeps the output reproducible at
    // any shard count.
    report::RunMetadata meta;
    meta.experiment = spec.name;
    meta.seed = spec.seed;
    meta.spec_echo = experiment_echo(spec);
    sink.open(agg::window_columns(), meta);
    const trace::FlowTrace trace = make_trace_source(spec)->flows();
    std::size_t rows = 0;
    (void)agg::run_fleet(trace, make_fleet_config(spec),
                         [&sink, &rows](const agg::MergedWindow& window) {
                           sink.emit(rows++, agg::window_row(window));
                         });
    sink.close(rows);
    return rows;
  }

  if (spec.monitor.enabled) {
    // Continuous-monitor mode: one MonitorLoop run, one row per emitted
    // top-t snapshot. Snapshots stream in emission order — the monitor's
    // own determinism (canonical top-t, order-insensitive window merges)
    // keeps the output reproducible at any shard count under kBlock.
    report::RunMetadata meta;
    meta.experiment = spec.name;
    meta.seed = spec.seed;
    meta.spec_echo = experiment_echo(spec);
    sink.open(monitor::snapshot_columns(), meta);
    monitor::MonitorLoop loop(make_trace_source(spec), make_monitor_config(spec));
    std::size_t rows = 0;
    loop.run([&sink, &rows](const monitor::MonitorSnapshot& snap) {
      sink.emit(rows++, monitor::snapshot_row(snap));
    });
    sink.close(rows);
    return rows;
  }

  const auto axes = grid_axes(spec);
  const std::size_t cells = grid_size(axes);

  // A rate sweep on mc/packet replaces the rates list (rate is those
  // engines' inner dimension, not a grid axis).
  ExperimentSpec base = spec;
  for (const auto& axis : spec.sweeps) {
    if (spec.model != ExperimentModel::kExact && axis.param == "rate") {
      base.sampling_rates = axis.values;
    }
  }

  // Exact-discrete grids share one core::DiscreteModelContext per
  // distinct (pmf, rate, max-size, tail-tol) — an (n, t) sweep pays for
  // its pairwise sums exactly once. Contexts are enumerated in
  // deterministic grid order and built before the parallel grid runs (a
  // build runs its two passes on the TaskPool), and the reuse is recorded
  // in the run metadata so result files document the sharing.
  DiscreteContextCache discrete_contexts;
  if (spec.model == ExperimentModel::kExact && spec.exact_discrete) {
    const std::size_t threads = exec::TaskPool::resolve_parallelism(base.num_threads);
    for (std::size_t index = 0; index < cells; ++index) {
      const auto values = cell_values(axes, index);
      const ExperimentSpec cell = sweep_cell(base, axes, values).spec;
      auto& context = discrete_contexts[discrete_context_key(cell)];
      if (!context) {
        core::DiscreteContextConfig cfg;
        cfg.p = cell.exact_rate;
        cfg.size_pmf =
            std::make_shared<dist::Discretized>(make_size_distribution(cell));
        cfg.max_size = cell.exact_max_size;
        cfg.tail_tolerance = cell.exact_tail_tol;
        cfg.num_threads = threads;
        context = std::make_shared<const core::DiscreteModelContext>(cfg);
      }
    }
  }

  report::RunMetadata meta;
  meta.experiment = spec.name;
  meta.seed = spec.seed;
  meta.spec_echo = experiment_echo(spec);
  if (!discrete_contexts.empty()) {
    meta.spec_echo.emplace_back(
        "exact-discrete-contexts",
        "built=" + std::to_string(discrete_contexts.size()) +
            ",cells=" + std::to_string(cells) + ",reused=" +
            std::to_string(cells - discrete_contexts.size()));
  }
  sink.open(experiment_columns(spec), meta);

  std::size_t rows = 0;
  if (spec.model == ExperimentModel::kExact) {
    // One row per grid cell; cells are independent (the quadrature and
    // root-solve caches are mutex- or thread-local-guarded, and discrete
    // contexts are immutable once built), so the grid runs on the shared
    // pool and the sink's reorder buffer restores grid order — output
    // bytes are identical at any thread count.
    const std::size_t threads = exec::TaskPool::resolve_parallelism(base.num_threads);
    exec::TaskPool& pool = exec::TaskPool::shared();
    pool.ensure_workers(threads - 1);
    pool.parallel_for(
        cells,
        [&](std::size_t index) {
          sink.emit(index, exact_cell_row(base, axes, index, discrete_contexts));
        },
        threads);
    rows = cells;
  } else if (spec.model == ExperimentModel::kMc) {
    // Cells sharing a trace configuration reuse one materialized trace
    // (e.g. a figure's two bin lengths), exactly like the historical
    // fig12-16 drivers.
    std::map<std::string, std::shared_ptr<const trace::FlowTrace>> trace_cache;
    for (std::size_t index = 0; index < cells; ++index) {
      const auto values = cell_values(axes, index);
      const ExperimentSpec cell = sweep_cell(base, axes, values).spec;
      auto& cached = trace_cache[trace_cache_key(cell)];
      if (!cached) {
        cached = std::make_shared<const trace::FlowTrace>(
            make_trace_source(cell)->flows());
      }
      const SimResult result = run_binned_simulation(*cached, make_sim_config(cell));
      for (const auto& series : result.series) {
        for (std::size_t b = 0; b < series.bins.size(); ++b) {
          const BinStats& stats = series.bins[b];
          report::Row row;
          push_axis_cells(row, axes, values);
          row.emplace_back(series.sampling_rate);
          row.emplace_back((static_cast<double>(b) + 1.0) * cell.bin_seconds);
          row.emplace_back(stats.flows_in_bin);
          const bool ranked = stats.ranking.count() > 0;
          row.emplace_back(ranked ? stats.ranking.mean() : std::nan(""));
          row.emplace_back(ranked ? stats.ranking.stddev() : std::nan(""));
          row.emplace_back(ranked ? stats.detection.mean() : std::nan(""));
          row.emplace_back(ranked ? stats.detection.stddev() : std::nan(""));
          row.emplace_back(ranked ? stats.recall.mean() : std::nan(""));
          sink.emit(rows++, std::move(row));
        }
      }
    }
  } else {
    std::map<std::string, std::shared_ptr<const trace::FlowTrace>> trace_cache;
    for (std::size_t index = 0; index < cells; ++index) {
      const auto values = cell_values(axes, index);
      const ExperimentSpec cell = sweep_cell(base, axes, values).spec;
      auto& cached = trace_cache[trace_cache_key(cell)];
      if (!cached) {
        cached = std::make_shared<const trace::FlowTrace>(
            make_trace_source(cell)->flows());
      }
      const SimConfig config = make_sim_config(cell);
      for (const double rate : cell.sampling_rates) {
        const auto bins = run_packet_level_estimated(
            *cached, rate, config, cell.seed, cell.num_shards, cell.estimator);
        for (std::size_t b = 0; b < bins.size(); ++b) {
          const bool ranked = bins[b].flows_in_bin >= cell.top_t;
          report::Row row;
          push_axis_cells(row, axes, values);
          row.emplace_back(rate);
          row.emplace_back((static_cast<double>(b) + 1.0) * cell.bin_seconds);
          row.emplace_back(bins[b].flows_in_bin);
          row.emplace_back(ranked ? bins[b].metrics.ranking_swapped : std::nan(""));
          row.emplace_back(ranked ? bins[b].metrics.detection_swapped
                                  : std::nan(""));
          row.emplace_back(ranked ? bins[b].metrics.top_set_recall : std::nan(""));
          sink.emit(rows++, std::move(row));
        }
      }
    }
  }
  const std::size_t total_rows =
      spec.model == ExperimentModel::kExact ? cells : rows;
  sink.close(total_rows);
  return total_rows;
}

}  // namespace flowrank::sim
