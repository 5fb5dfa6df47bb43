// Shared pieces of the end-to-end benchmark: the span tracer, the
// workload interface and the per-layer metric sheet.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What the spans of one name added up to.
struct SpanTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< durations minus the time their child spans cover
};
using TraceTotals = std::map<std::string, SpanTotals>;

/// In-memory span recorder for the traced run. Spans are opened and
/// closed on the calling thread only and nest strictly, so each span's
/// parent is the innermost span open when it began.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top level
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(Tracer* tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    ~Scope() { tracer_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  /// Opens a span named `name` (layer.call, e.g. "trace.expand").
  [[nodiscard]] Scope span(std::string_view name);

  /// Per-name totals over every closed span.
  [[nodiscard]] TraceTotals totals() const;

  /// Summed duration of top-level spans: the traced time the spans cover.
  [[nodiscard]] double covered_s() const;

  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  void close(std::int32_t index);

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::int32_t open_ = -1;  ///< innermost open span
};

/// Name and unit of every per-layer metric, in the order BENCHMARK.json
/// lists them. A workload fills the metrics of the layers it calls; the
/// rest stay 0 (the layer did no work in that workload).
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metric_sheet();

/// Per-layer metric values keyed by name.
using LayerValues = std::map<std::string, double>;

/// Outcome of one operation: a monitor pass, a fleet pass, a planner
/// query or a Monte-Carlo cell.
struct OpResult {
  std::uint64_t items = 0;  ///< packets, queries or cells completed
  bool ok = true;           ///< every output check passed
};

/// One benchmark workload. The benchmark owns the timing; a workload
/// generates its inputs, runs operations through the library's public
/// entry points and checks their outputs.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed`; returns the seconds it took.
  virtual double generate(std::uint64_t seed) = 0;

  /// Runs operation `index` through the public entry point, appending
  /// one latency sample (ms) per step the workload defines (a window, a
  /// query or a cell). Every round must append the same number of
  /// samples, the i-th always timing the same step.
  virtual OpResult run(std::size_t index, std::vector<double>& latencies_ms) = 0;

  /// Operations making up one round: the fixed unit of work that the
  /// set-up warms up once, the timed phase repeats and a traced pass
  /// covers.
  [[nodiscard]] virtual std::size_t ops_per_round() const = 0;

  /// Runs operation `index` composed from the public calls the entry
  /// point makes, with a span around each. ok only if the output equals
  /// what run(index) produces.
  virtual OpResult run_traced(std::size_t index, Tracer& tracer) = 0;

  /// Checks that need more work than the timed loop should carry,
  /// run once after it over the operations attempted. Returns the number
  /// of failed checks.
  virtual std::uint64_t final_checks() { return 0; }

  /// Fills this workload's per-layer metrics from the span totals of
  /// `passes` traced passes.
  virtual void layer_metrics(const TraceTotals& totals, std::size_t passes,
                             LayerValues& out) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_monitor_sprint();
[[nodiscard]] std::unique_ptr<Workload> make_fleet_churn();
[[nodiscard]] std::unique_ptr<Workload> make_plan_exact();
[[nodiscard]] std::unique_ptr<Workload> make_mc_sweep();

/// Self seconds of span `name` per traced pass (0 when it never ran).
[[nodiscard]] double self_per_pass(const TraceTotals& totals,
                                   const std::string& name, std::size_t passes);

/// Mean duration of one `name` span, in seconds (0 when it never ran).
[[nodiscard]] double mean_call_s(const TraceTotals& totals, const std::string& name);

}  // namespace perfbench
