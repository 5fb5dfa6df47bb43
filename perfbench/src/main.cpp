// flowrank_perfbench — end-to-end benchmark program (see perfbench/README.md).
//
//   flowrank_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                      [--spans-out <path>]
//
// --trace 0 prints the end-to-end metrics of one untraced run; --trace 1
// alternates untraced and traced passes of the workload's fixed traced
// work and prints the per-layer metrics. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepetitions = 5;
/// Fewest rounds a timed run may end with, so that every item's best
/// time is taken over at least this many repeats.
constexpr std::size_t kMinRounds = 10;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "flowrank_perfbench: %s\n"
               "usage: flowrank_perfbench --workload "
               "monitor_sprint|fleet_churn|plan_exact|mc_sweep --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n",
               problem.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--spans-out") {
        options.spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be > 0");
  return options;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "monitor_sprint") return make_monitor_sprint();
  if (name == "fleet_churn") return make_fleet_churn();
  if (name == "plan_exact") return make_plan_exact();
  if (name == "mc_sweep") return make_mc_sweep();
  usage("unknown workload " + name);
}

/// Linear interpolation between order statistics.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// CPU seconds this process has used (user + system, all threads).
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Pins the process to the CPU it is running on and returns that CPU (-1
/// when it cannot). Threads started later inherit the mask, so the one
/// pool worker of fleet_churn shares the core with the calling thread
/// instead of handing chunks across cores; on a shared host that
/// hand-off made the fleet's timing three times as noisy as the
/// single-threaded workloads'.
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const OpResult& result) {
    ++attempted;
    if (!result.ok) ++failed;
  }
};

int run(const Options& options) {
  const int cpu = pin_to_current_cpu();
  std::unique_ptr<Workload> workload = make_workload(options.workload);
  Tally tally;

  // Set-up: input generation plus one untimed warm-up round, whose
  // outputs the later operations are checked against.
  std::vector<double> setup_s, generate_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const auto start = Clock::now();
    generate_s.push_back(workload->generate(options.seed));
    std::vector<double> warmup_latencies;
    for (std::size_t i = 0; i < workload->ops_per_round(); ++i) {
      tally.add(workload->run(i, warmup_latencies));
    }
    setup_s.push_back(seconds_since(start));
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    // Whole rounds of the workload's fixed work. Every round times the
    // same steps (windows, queries or cells) in the same order, so the
    // i-th latency sample of each round belongs to the same step. The
    // shared host's interference only ever adds time, in spells of
    // seconds, so each step's cost is estimated by its best time over
    // the rounds (the minimum estimator of Chen & Revels, "Robust
    // benchmarking in noisy environments", 2016). items_per_s is a
    // round's items over the sum of those best times; the latency
    // quantiles are taken over them.
    std::vector<double> best_ms, round_ms, round_rates;
    std::uint64_t items = 0, items_per_round = 0;
    std::size_t ops = 0;
    const auto start = Clock::now();
    const double cpu_start = cpu_seconds();
    double elapsed = 0.0;
    do {
      round_ms.clear();
      const auto round_start = Clock::now();
      std::uint64_t round_items = 0;
      for (std::size_t i = 0; i < workload->ops_per_round(); ++i) {
        const OpResult result = workload->run(ops++, round_ms);
        round_items += result.items;
        tally.add(result);
      }
      round_rates.push_back(static_cast<double>(round_items) / seconds_since(round_start));
      if (round_rates.size() == 1) {
        best_ms = round_ms;
        items_per_round = round_items;
      } else if (round_ms.size() != best_ms.size() || round_items != items_per_round) {
        ++tally.failed;  // a round must repeat the first round's items
      } else {
        for (std::size_t i = 0; i < best_ms.size(); ++i) {
          best_ms[i] = std::min(best_ms[i], round_ms[i]);
        }
      }
      items += round_items;
      elapsed = seconds_since(start);
    } while (elapsed < options.seconds || round_rates.size() < kMinRounds);
    tally.failed += workload->final_checks();

    double best_round_ms = 0.0;
    for (const double ms : best_ms) best_round_ms += ms;
    std::printf("workload %s on cpu %d: %zu rounds, %zu operations, %llu items in %.3f s "
                "(%.3f CPU s); %llu items and %zu latency samples per round\n",
                options.workload.c_str(), cpu, round_rates.size(), ops,
                static_cast<unsigned long long>(items), elapsed, cpu_seconds() - cpu_start,
                static_cast<unsigned long long>(items_per_round), best_ms.size());
    std::printf("round rates (1/s), median %.6g:", median(round_rates));
    for (const double rate : round_rates) std::printf(" %.6g", rate);
    std::printf("\n");
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"items_per_s", 1e3 * static_cast<double>(items_per_round) / best_round_ms, "1/s"},
        {"latency_ms_p50", quantile(best_ms, 0.5), "ms"},
        {"latency_ms_p90", quantile(best_ms, 0.9), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    Tracer tracer;
    std::vector<double> untraced_s, traced_s;
    std::size_t passes = 0;
    const auto start = Clock::now();
    do {
      std::vector<double> latencies_ms;
      auto pass_start = Clock::now();
      for (std::size_t i = 0; i < workload->ops_per_round(); ++i) {
        tally.add(workload->run(i, latencies_ms));
      }
      untraced_s.push_back(seconds_since(pass_start));
      pass_start = Clock::now();
      for (std::size_t i = 0; i < workload->ops_per_round(); ++i) {
        tally.add(workload->run_traced(i, tracer));
      }
      traced_s.push_back(seconds_since(pass_start));
      ++passes;
    } while (seconds_since(start) < options.seconds);
    tally.failed += workload->final_checks();
    if (!options.spans_out.empty()) tracer.write_jsonl(options.spans_out);

    LayerValues values;
    for (const LayerMetric& metric : layer_metric_sheet()) values[metric.name] = 0.0;
    const TraceTotals totals = tracer.totals();
    workload->layer_metrics(totals, passes, values);
    values["trace.generate_s"] = median(generate_s);
    double traced_total = 0.0;
    for (const double s : traced_s) traced_total += s;
    values["bench.traced_pass_s"] = median(traced_s);
    values["bench.span_coverage"] = 100.0 * tracer.covered_s() / traced_total;
    values["bench.trace_overhead"] = 100.0 * (median(traced_s) / median(untraced_s) - 1.0);

    std::printf("workload %s: %zu traced passes; self time per pass by span:\n",
                options.workload.c_str(), passes);
    for (const auto& [name, span] : totals) {
      std::printf("  %-28s calls %10llu  self %10.6f s  total %10.6f s\n", name.c_str(),
                  static_cast<unsigned long long>(span.calls),
                  span.self_s / static_cast<double>(passes),
                  span.total_s / static_cast<double>(passes));
    }
    for (const LayerMetric& metric : layer_metric_sheet()) {
      metrics.push_back({metric.name, values.at(metric.name), metric.unit});
    }
  }

  for (Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "flowrank_perfbench: metric %s is not finite\n",
                   metric.name.c_str());
      metric.value = 0.0;
      ++tally.failed;
    }
    std::printf("  %-28s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "flowrank_perfbench: %s\n", error.what());
    return 1;
  }
}
