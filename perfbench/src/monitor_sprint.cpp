// monitor_sprint: the continuous monitor over a Sprint 5-tuple trace at
// the paper's operating point (Pareto beta = 1.5, p = 0.01).
//
// One operation is one monitor::MonitorLoop::run over the pre-generated
// trace; an item is a packet offered to it, and a latency sample is the
// gap between consecutive snapshot callbacks (the first one measured
// from the start of the run, so the trace materialization in run() shows
// in the tail). The monitor runs inline on a private zero-worker pool
// with one shard: a pool worker makes the throughput bimodal on a shared
// host (see README.md).
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "flowrank/exec/task_pool.hpp"
#include "flowrank/flowtable/flow_table.hpp"
#include "flowrank/ingest/sharded_pipeline.hpp"
#include "flowrank/monitor/monitor_loop.hpp"
#include "flowrank/sampler/packet_sampler.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/fault_injection.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/trace/trace_source.hpp"

namespace perfbench {
namespace {

constexpr double kBeta = 1.5;
constexpr double kDurationS = 60.0;
constexpr double kWindowS = 0.5;
constexpr double kSamplingRate = 0.01;
constexpr std::size_t kTopT = 10;

/// What a snapshot shows the operator; run() and run_traced() must agree
/// on every field.
struct Snapshot {
  std::uint64_t window = 0;
  std::size_t window_flows = 0;
  std::uint64_t window_packets = 0;
  std::vector<std::pair<flowrank::packet::FlowKey, double>> top;
  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Times flows() of the wrapped source under a "monitor.source_flows" span.
class SpannedSource final : public flowrank::trace::TraceSource {
 public:
  SpannedSource(std::shared_ptr<const flowrank::trace::TraceSource> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] flowrank::trace::FlowTrace flows() const override {
    auto span = tracer_->span("monitor.source_flows");
    return inner_->flows();
  }

 private:
  std::shared_ptr<const flowrank::trace::TraceSource> inner_;
  Tracer* tracer_;
};

class MonitorSprint final : public Workload {
 public:
  double generate(std::uint64_t seed) override {
    const auto start = Clock::now();
    auto config = flowrank::trace::FlowTraceConfig::sprint_5tuple(kBeta, seed);
    config.duration_s = kDurationS;
    flowrank::trace::FlowTrace trace = flowrank::trace::generate_flow_trace(config);
    const double seconds = seconds_since(start);
    total_packets_ = trace.total_packets();
    source_ = std::make_shared<flowrank::trace::FixedTraceSource>(std::move(trace),
                                                                  "sprint_5tuple");
    seed_ = seed;
    reference_.clear();
    return seconds;
  }

  OpResult run(std::size_t /*index*/, std::vector<double>& latencies_ms) override {
    std::vector<Snapshot> snapshots;
    auto last = Clock::now();
    flowrank::monitor::MonitorLoop loop(source_, config());
    const flowrank::monitor::MonitorReport report =
        loop.run([&](const flowrank::monitor::MonitorSnapshot& snap) {
          const auto now = Clock::now();
          latencies_ms.push_back(std::chrono::duration<double, std::milli>(now - last).count());
          last = now;
          Snapshot copy{snap.window, snap.window_flows, snap.window_packets, {}};
          for (const auto& flow : snap.top) copy.top.emplace_back(flow.key, flow.estimate);
          snapshots.push_back(std::move(copy));
        });
    const auto& c = report.counters;

    OpResult result;
    result.items = c.packets_offered;
    // Conservation: every trace packet is offered once; every sampled
    // packet is ingested (no shedding under kBlock) and lands in exactly
    // one window; nothing is dropped as faulty.
    std::uint64_t window_packets = 0;
    for (const Snapshot& snap : snapshots) window_packets += snap.window_packets;
    result.ok = c.packets_offered == total_packets_ &&
                c.packets_sampled == c.packets_ingested && c.shed_packets == 0 &&
                c.pipeline_shed_packets == 0 && c.corrupt_records == 0 &&
                c.truncated_records == 0 && window_packets == c.packets_ingested &&
                report.snapshots == c.windows && snapshots.size() == c.windows &&
                sample_count_plausible(c.packets_offered, c.packets_sampled);
    // Window count: at least the trace's declared bins, and the same on
    // every run as on the warm-up run (and then the same snapshots).
    result.ok = result.ok &&
                c.windows >= flowrank::trace::bin_count(kDurationS, kWindowS);
    if (reference_.empty()) {
      reference_ = std::move(snapshots);
      reference_sampled_ = c.packets_sampled;
    } else {
      result.ok = result.ok && snapshots == reference_;
    }
    return result;
  }

  [[nodiscard]] std::size_t ops_per_round() const override { return 1; }

  // MonitorLoop::run for this configuration (no faults, kBlock, alpha = 1,
  // snapshot every window), composed from the same public calls. With
  // alpha = 1 every tracked estimate is the latest window's count / rate,
  // so a snapshot's top list is that window's flowtable::top_k.
  OpResult run_traced(std::size_t /*index*/, Tracer& tracer) override {
    namespace fr = flowrank;
    const SpannedSource source(source_, tracer);
    fr::trace::FlowTrace trace = source.flows();
    std::uint64_t faulty = 0;
    {
      auto span = tracer.span("monitor.screen");
      std::vector<fr::packet::FlowRecord> clean;
      clean.reserve(trace.flows.size());
      for (const fr::packet::FlowRecord& flow : trace.flows) {
        if (fr::trace::classify_record_fault(flow) == fr::trace::RecordFault::kNone) {
          clean.push_back(flow);
        } else {
          ++faulty;
        }
      }
      trace.flows = std::move(clean);
    }

    const fr::monitor::MonitorConfig cfg = config();
    const std::int64_t window_ns = fr::trace::bin_length_ns(cfg.window_s);
    std::map<std::size_t, std::vector<fr::flowtable::FlowCounter>> pending;
    fr::ingest::ShardedPipelineConfig pipe;
    pipe.num_shards = cfg.num_shards;
    pipe.bin_ns = window_ns;
    pipe.table_options = cfg.table_options;
    pipe.max_queue_chunks = cfg.max_queue_chunks;
    pipe.chunk_packets = cfg.chunk_packets;
    pipe.overload = cfg.overload;
    pipe.pool = cfg.pool;
    // The pool has no workers, so flushes run on this thread.
    pipe.on_shard_bin = [&pending](std::size_t, std::size_t, std::size_t bin,
                                   const fr::flowtable::FlowTable& table) {
      auto& flows = pending[bin];
      table.for_each_all([&flows](const fr::flowtable::FlowCounter& f) { flows.push_back(f); });
    };
    fr::ingest::ShardedPipeline pipeline(pipe);
    fr::trace::PacketStream stream(trace);
    fr::sampler::BernoulliSampler sampler(cfg.sampling_rate, cfg.seed);

    std::vector<Snapshot> snapshots;
    std::uint64_t flows_seen = 0;
    const auto complete_window = [&](std::size_t w) {
      std::vector<fr::flowtable::FlowCounter> flows;
      if (const auto it = pending.find(w); it != pending.end()) {
        flows = std::move(it->second);
        pending.erase(it);
      }
      Snapshot snap{w, flows.size(), 0, {}};
      for (const auto& f : flows) snap.window_packets += f.packets;
      flows_seen += flows.size();
      auto span = tracer.span("flowtable.top_k");
      for (const auto& f : fr::flowtable::top_k(std::move(flows), cfg.top_t)) {
        snap.top.emplace_back(f.key, static_cast<double>(f.packets) / cfg.sampling_rate);
      }
      snapshots.push_back(std::move(snap));
    };

    std::size_t window = 0;
    const auto rotate_to = [&](std::size_t next) {
      {
        auto span = tracer.span("ingest.rotate_epoch");
        pipeline.rotate_epoch(next);
      }
      for (std::size_t w = window; w < next; ++w) complete_window(w);
      window = next;
    };

    std::uint64_t offered = 0, sampled = 0;
    std::vector<fr::packet::PacketRecord> batch, selected;
    batch.reserve(cfg.batch_packets);
    selected.reserve(cfg.batch_packets);
    while (true) {
      std::size_t pulled = 0;
      {
        auto span = tracer.span("trace.expand");
        pulled = stream.next_batch(batch, cfg.batch_packets);
      }
      if (pulled == 0) break;
      offered += pulled;
      std::size_t begin = 0;
      while (begin < pulled) {
        const std::int64_t boundary = static_cast<std::int64_t>(window + 1) * window_ns;
        std::size_t end = begin;
        while (end < pulled && batch[end].timestamp_ns < boundary) ++end;
        if (end > begin) {
          {
            auto span = tracer.span("sampler.select");
            sampler.select_into(std::span(batch.data() + begin, end - begin), selected);
          }
          sampled += selected.size();
          auto span = tracer.span("ingest.add_batch");
          pipeline.add_batch(0, selected);
          begin = end;
        }
        if (begin < pulled) {
          rotate_to(static_cast<std::size_t>(batch[begin].timestamp_ns / window_ns));
        }
      }
    }
    {
      auto span = tracer.span("ingest.finish");
      pipeline.finish();
    }
    while (!pending.empty()) {
      const std::size_t bin = pending.begin()->first;
      for (std::size_t w = window; w <= bin; ++w) complete_window(w);
      window = bin + 1;
    }

    traced_offered_ += offered;
    traced_sampled_ += sampled;
    traced_windows_ += snapshots.size();
    traced_flows_ += flows_seen;
    traced_queue_full_ += pipeline.overload_stats().queue_full_events;
    OpResult result;
    result.items = offered;
    result.ok = faulty == 0 && offered == total_packets_ && sampled == reference_sampled_ &&
                snapshots == reference_;
    return result;
  }

  void layer_metrics(const TraceTotals& totals, std::size_t passes,
                     LayerValues& out) const override {
    const double n = static_cast<double>(passes);
    const double expand_s = self_per_pass(totals, "trace.expand", passes);
    out["trace.expand_s"] = expand_s;
    out["trace.expand_pkts_per_s"] =
        expand_s > 0.0 ? static_cast<double>(traced_offered_) / n / expand_s : 0.0;
    out["monitor.source_flows_s"] = self_per_pass(totals, "monitor.source_flows", passes);
    out["sampler.select_s"] = self_per_pass(totals, "sampler.select", passes);
    out["sampler.selected_ratio"] =
        static_cast<double>(traced_sampled_) / static_cast<double>(traced_offered_);
    out["ingest.add_batch_s"] = self_per_pass(totals, "ingest.add_batch", passes);
    out["ingest.rotate_epoch_s"] = self_per_pass(totals, "ingest.rotate_epoch", passes);
    out["ingest.queue_full_events"] = static_cast<double>(traced_queue_full_) / n;
    out["flowtable.top_k_s"] = self_per_pass(totals, "flowtable.top_k", passes);
    out["flowtable.flows_per_window"] =
        static_cast<double>(traced_flows_) / static_cast<double>(traced_windows_);
  }

 private:
  [[nodiscard]] flowrank::monitor::MonitorConfig config() {
    flowrank::monitor::MonitorConfig cfg;
    cfg.window_s = kWindowS;
    cfg.top_t = kTopT;
    cfg.sampling_rate = kSamplingRate;
    cfg.seed = seed_;
    cfg.num_shards = 1;
    cfg.pool = &pool_;
    return cfg;
  }

  /// Sampled count within six standard deviations of Binomial(offered, p).
  static bool sample_count_plausible(std::uint64_t offered, std::uint64_t sampled) {
    const double n = static_cast<double>(offered);
    const double sd = std::sqrt(n * kSamplingRate * (1.0 - kSamplingRate));
    return std::abs(static_cast<double>(sampled) - n * kSamplingRate) <= 6.0 * sd + 1.0;
  }

  flowrank::exec::TaskPool pool_{0};
  std::shared_ptr<const flowrank::trace::TraceSource> source_;
  std::uint64_t seed_ = 1;
  std::uint64_t total_packets_ = 0;
  std::vector<Snapshot> reference_;
  std::uint64_t reference_sampled_ = 0;
  std::uint64_t traced_offered_ = 0, traced_sampled_ = 0, traced_windows_ = 0;
  std::uint64_t traced_flows_ = 0, traced_queue_full_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_monitor_sprint() { return std::make_unique<MonitorSprint>(); }

}  // namespace perfbench
