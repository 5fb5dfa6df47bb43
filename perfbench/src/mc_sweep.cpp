// mc_sweep: the trace-driven count-path Monte-Carlo behind the paper's
// simulated figures (fig12-style). One operation is one
// sim::run_binned_simulation call for one (sampling rate, bin) cell —
// the bin's flows come from their own one-bin trace — so a latency
// sample is one call. This is the one workload where the sim, trace
// binning, binomial thinning and rank-metric layers dominate.
#include <memory>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "flowrank/metrics/rank_metrics.hpp"
#include "flowrank/sim/binned_sim.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/util/binomial_sample.hpp"
#include "flowrank/util/rng.hpp"

namespace perfbench {
namespace {

namespace fr = flowrank;

constexpr double kBeta = 1.5;
constexpr double kBinS = 2.5;
constexpr std::size_t kBins = 32;
constexpr double kRates[] = {0.001, 0.01, 0.1, 0.5};
constexpr std::size_t kRateCount = sizeof(kRates) / sizeof(kRates[0]);
constexpr std::size_t kCells = kRateCount * kBins;
constexpr int kRuns = 10;
constexpr std::size_t kTopT = 10;

bool same(const fr::numeric::RunningStats& a, const fr::numeric::RunningStats& b) {
  return a.count() == b.count() && a.mean() == b.mean() && a.variance() == b.variance() &&
         a.min() == b.min() && a.max() == b.max();
}

bool same(const fr::sim::BinStats& a, const fr::sim::BinStats& b) {
  return a.flows_in_bin == b.flows_in_bin && same(a.ranking, b.ranking) &&
         same(a.detection, b.detection) && same(a.recall, b.recall);
}

class McSweep final : public Workload {
 public:
  double generate(std::uint64_t seed) override {
    const auto start = Clock::now();
    traces_.clear();
    for (std::size_t b = 0; b < kBins; ++b) {
      auto config =
          fr::trace::FlowTraceConfig::sprint_5tuple(kBeta, fr::util::mix_stream(seed, b));
      config.duration_s = kBinS;
      traces_.push_back(fr::trace::generate_flow_trace(config));
    }
    seed_ = seed;
    reference_.assign(kCells, std::nullopt);
    return seconds_since(start);
  }

  OpResult run(std::size_t index, std::vector<double>& latencies_ms) override {
    const std::size_t cell = index % kCells;
    const auto start = Clock::now();
    const fr::sim::SimResult result =
        fr::sim::run_binned_simulation(traces_[cell % kBins], config(cell));
    latencies_ms.push_back(1e3 * seconds_since(start));

    // One rate, one bin, rankable: its stats hold every run.
    OpResult op{1, true};
    op.ok = result.series.size() == 1 && result.series[0].bins.size() == 1;
    if (!op.ok) return op;
    const fr::sim::BinStats& stats = result.series[0].bins[0];
    op.ok = stats.flows_in_bin >= kTopT && stats.ranking.count() == kRuns &&
            stats.detection.count() == kRuns && stats.recall.count() == kRuns;
    if (!reference_[cell]) {
      reference_[cell] = stats;
    } else {
      op.ok = op.ok && same(*reference_[cell], stats);
    }
    return op;
  }

  [[nodiscard]] std::size_t ops_per_round() const override { return kCells; }

  // run_binned_simulation's count path for one rate and one bin,
  // composed from the same public calls.
  OpResult run_traced(std::size_t index, Tracer& tracer) override {
    const std::size_t cell = index % kCells;
    const fr::sim::SimConfig cfg = config(cell);
    auto call = tracer.span("sim.binned_call");
    fr::trace::BinnedCounts counts;
    {
      auto span = tracer.span("trace.bin_counts");
      counts = fr::trace::bin_flow_counts(traces_[cell % kBins], cfg.bin_seconds,
                                          cfg.definition, cfg.seed);
    }
    OpResult op{1, counts.bins.size() == 1};
    if (!op.ok) return op;
    const auto& bin = counts.bins[0];
    fr::sim::BinStats stats;
    stats.flows_in_bin = bin.size();
    if (bin.size() >= cfg.top_t) {
      std::vector<std::uint64_t> true_sizes(bin.size()), sampled_sizes(bin.size());
      for (std::size_t i = 0; i < bin.size(); ++i) true_sizes[i] = bin[i].packets;
      std::optional<fr::metrics::RankMetricsContext> context;
      {
        auto span = tracer.span("metrics.context");
        context.emplace(true_sizes, cfg.top_t);
      }
      fr::util::BinomialThinner thin(cfg.sampling_rates[0]);
      for (int run = 0; run < cfg.runs; ++run) {
        {
          auto span = tracer.span("numeric.binomial_sample");
          auto engine = fr::util::make_engine(
              cfg.seed, fr::util::mix_streams(0, static_cast<std::uint64_t>(run), 0));
          for (std::size_t i = 0; i < bin.size(); ++i) {
            sampled_sizes[i] = thin(true_sizes[i], engine);
          }
        }
        traced_draws_ += bin.size();
        fr::metrics::RankMetricsResult m;
        {
          auto span = tracer.span("metrics.rank_eval");
          m = context->evaluate(sampled_sizes, cfg.tie_policy);
        }
        stats.ranking.add(m.ranking_swapped);
        stats.detection.add(m.detection_swapped);
        stats.recall.add(m.top_set_recall);
      }
    }
    op.ok = reference_[cell] && same(*reference_[cell], stats);
    return op;
  }

  void layer_metrics(const TraceTotals& totals, std::size_t passes,
                     LayerValues& out) const override {
    out["sim.binned_call_s"] = self_per_pass(totals, "sim.binned_call", passes);
    out["trace.bin_counts_s"] = self_per_pass(totals, "trace.bin_counts", passes);
    out["metrics.rank_eval_s"] = self_per_pass(totals, "metrics.rank_eval", passes) +
                                 self_per_pass(totals, "metrics.context", passes);
    const auto it = totals.find("numeric.binomial_sample");
    out["numeric.binomial_sample_ns"] =
        it == totals.end() || traced_draws_ == 0
            ? 0.0
            : 1e9 * it->second.self_s / static_cast<double>(traced_draws_);
  }

 private:
  [[nodiscard]] fr::sim::SimConfig config(std::size_t cell) const {
    fr::sim::SimConfig cfg;
    cfg.bin_seconds = kBinS;
    cfg.top_t = kTopT;
    cfg.sampling_rates = {kRates[cell / kBins]};
    cfg.runs = kRuns;
    cfg.seed = seed_;
    cfg.num_threads = 1;
    return cfg;
  }

  std::vector<fr::trace::FlowTrace> traces_;
  std::uint64_t seed_ = 1;
  std::vector<std::optional<fr::sim::BinStats>> reference_;
  std::uint64_t traced_draws_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_mc_sweep() { return std::make_unique<McSweep>(); }

}  // namespace perfbench
