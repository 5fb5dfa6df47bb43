#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

Tracer::Scope Tracer::span(std::string_view name) {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    it = ids_.emplace(std::string(name), static_cast<std::uint32_t>(names_.size())).first;
    names_.emplace_back(name);
  }
  Span span;
  span.name = it->second;
  span.parent = open_;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  spans_.push_back(span);
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return Scope(this, open_);
}

void Tracer::close(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  open_ = span.parent;
}

TraceTotals Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  TraceTotals out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    SpanTotals& totals = out[names_[span.name]];
    ++totals.calls;
    totals.total_s += 1e-9 * static_cast<double>(duration);
    totals.self_s += 1e-9 * static_cast<double>(duration - child_ns[i]);
  }
  return out;
}

double Tracer::covered_s() const {
  std::int64_t covered = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) covered += span.end_ns - span.start_ns;
  }
  return 1e-9 * static_cast<double>(covered);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << names_[span.name] << "\",\"parent\":" << span.parent
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  if (!out.flush()) throw std::runtime_error("perfbench: cannot write " + path);
}

double self_per_pass(const TraceTotals& totals, const std::string& name,
                     std::size_t passes) {
  const auto it = totals.find(name);
  if (it == totals.end() || passes == 0) return 0.0;
  return it->second.self_s / static_cast<double>(passes);
}

double mean_call_s(const TraceTotals& totals, const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.calls == 0) return 0.0;
  return it->second.total_s / static_cast<double>(it->second.calls);
}

const std::vector<LayerMetric>& layer_metric_sheet() {
  static const std::vector<LayerMetric> sheet = {
      {"trace.generate_s", "s"},
      {"trace.expand_s", "s"},
      {"trace.expand_pkts_per_s", "1/s"},
      {"monitor.source_flows_s", "s"},
      {"sampler.select_s", "s"},
      {"sampler.selected_ratio", "ratio"},
      {"ingest.add_batch_s", "s"},
      {"ingest.rotate_epoch_s", "s"},
      {"ingest.queue_full_events", "count"},
      {"flowtable.top_k_s", "s"},
      {"flowtable.insert_s", "s"},
      {"flowtable.flows_per_window", "count"},
      {"agg.route_s", "s"},
      {"agg.summarize_s", "s"},
      {"agg.serialize_s", "s"},
      {"agg.summary_bytes", "bytes"},
      {"agg.parse_s", "s"},
      {"agg.offer_s", "s"},
      {"agg.close_window_s", "s"},
      {"agg.accept_ratio", "ratio"},
      {"core.context_build_ms", "ms"},
      {"core.context_evaluate_us", "us"},
      {"core.quadrature_eval_ms", "ms"},
      {"core.plan_discrete_ms", "ms"},
      {"core.plan_continuous_ms", "ms"},
      {"sim.binned_call_s", "s"},
      {"trace.bin_counts_s", "s"},
      {"metrics.rank_eval_s", "s"},
      {"numeric.binomial_sample_ns", "ns"},
      {"bench.traced_pass_s", "s"},
      {"bench.span_coverage", "%"},
      {"bench.trace_overhead", "%"},
  };
  return sheet;
}

}  // namespace perfbench
