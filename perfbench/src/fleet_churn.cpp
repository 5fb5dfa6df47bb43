// fleet_churn: a three-agent in-process fleet (agg::run_fleet, flow-hash
// split) over a pktgen-style churn trace at a high per-agent sampling
// rate, with channel faults off.
//
// Against monitor_sprint it uses the ingest and flowtable layers the
// other way round — a bounded flow population, so table probes mostly hit
// existing keys — and adds the aggregation path: every window each agent
// summarizes, serializes and checksums its table, and the aggregator
// parses and merges the summaries. One operation is one run_fleet pass;
// an item is a packet streamed, and a latency sample is the gap between
// consecutive on_window callbacks. The agents' pipelines run on
// exec::TaskPool::shared(), which run_fleet exposes no knob for.
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "flowrank/agg/aggregator.hpp"
#include "flowrank/agg/fleet_run.hpp"
#include "flowrank/agg/flow_summary.hpp"
#include "flowrank/agg/summary_channel.hpp"
#include "flowrank/flowtable/flow_table.hpp"
#include "flowrank/ingest/sharded_pipeline.hpp"
#include "flowrank/sampler/packet_sampler.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/flow_churn.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/util/rng.hpp"

namespace perfbench {
namespace {

namespace fr = flowrank;

constexpr double kDurationS = 60.0;
constexpr std::size_t kPopulation = 1000;
constexpr double kChurnPerS = 10.0;
constexpr std::size_t kAgents = 3;
constexpr double kWindowS = 0.5;
constexpr double kSamplingRate = 0.5;
constexpr std::size_t kTopT = 10;

/// What a closed window shows the operator; run() and run_traced() must
/// agree on every field.
struct Window {
  std::uint64_t epoch = 0;
  std::size_t merged_flows = 0;
  double estimated_packets = 0.0;
  std::size_t agents_merged = 0;
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_sampled = 0;
  std::vector<std::pair<fr::packet::FlowKey, double>> top;
  friend bool operator==(const Window&, const Window&) = default;

  static Window of(const fr::agg::MergedWindow& merged) {
    Window window{merged.epoch,          merged.merged_flows,    merged.estimated_packets,
                  merged.agents_merged,  merged.packets_offered, merged.packets_sampled,
                  {}};
    for (const auto& flow : merged.top) window.top.emplace_back(flow.key, flow.estimated_packets);
    return window;
  }
};

class FleetChurn final : public Workload {
 public:
  double generate(std::uint64_t seed) override {
    const auto start = Clock::now();
    fr::trace::FlowChurnConfig config;
    config.duration_s = kDurationS;
    config.population = kPopulation;
    config.churn_per_s = kChurnPerS;
    config.seed = seed;
    trace_ = fr::trace::FlowChurnTraceSource(config).flows();
    const double seconds = seconds_since(start);
    total_packets_ = trace_.total_packets();
    seed_ = seed;
    reference_.clear();
    return seconds;
  }

  OpResult run(std::size_t /*index*/, std::vector<double>& latencies_ms) override {
    std::vector<Window> windows;
    auto last = Clock::now();
    const fr::agg::FleetReport report =
        fr::agg::run_fleet(trace_, config(), [&](const fr::agg::MergedWindow& merged) {
          const auto now = Clock::now();
          latencies_ms.push_back(std::chrono::duration<double, std::milli>(now - last).count());
          last = now;
          windows.push_back(Window::of(merged));
        });
    const auto& c = report.counters;

    OpResult result;
    result.items = report.packets_total;
    // Faults off: every agent's summary of every window is merged, and
    // none is corrupt, late, duplicated, stale or missing. Every packet
    // is routed to exactly one agent.
    std::uint64_t offered = 0;
    for (const Window& window : windows) offered += window.packets_offered;
    result.ok = c.summaries_merged == kAgents * report.windows &&
                c.summaries_offered == c.summaries_merged && c.corrupt_summaries == 0 &&
                c.late_summaries == 0 && c.duplicate_summaries == 0 &&
                c.stale_summaries == 0 && c.missed_summaries == 0 &&
                c.windows_closed == report.windows && windows.size() == report.windows &&
                report.packets_total == total_packets_ && offered == total_packets_ &&
                report.windows >= fr::trace::bin_count(kDurationS, kWindowS);
    if (reference_.empty()) {
      reference_ = std::move(windows);
    } else {
      result.ok = result.ok && windows == reference_;
    }
    return result;
  }

  [[nodiscard]] std::size_t ops_per_round() const override { return 1; }

  // run_fleet for this configuration (table summaries, flow split, more
  // than one agent, no channel faults), composed from the same public
  // calls; Aggregator::offer is parse_summary plus the lane check plus
  // offer_summary.
  OpResult run_traced(std::size_t /*index*/, Tracer& tracer) override {
    const fr::agg::FleetConfig cfg = config();
    const std::int64_t window_ns = fr::trace::bin_length_ns(cfg.window_s);

    struct Agent {
      explicit Agent(double rate, std::uint64_t seed) : sampler(rate, seed) {}
      fr::sampler::BernoulliSampler sampler;
      std::unique_ptr<fr::ingest::ShardedPipeline> pipeline;
      std::mutex mutex;  // flushes arrive on pool workers
      std::map<std::size_t, std::vector<fr::flowtable::FlowCounter>> window_flows;
      std::uint64_t offered = 0, sampled = 0, prev_shed = 0;
      std::vector<fr::packet::PacketRecord> routed, selected;
    };
    std::vector<std::unique_ptr<Agent>> agents;
    for (std::size_t a = 0; a < cfg.agents; ++a) {
      agents.push_back(std::make_unique<Agent>(cfg.sampling_rate, fr::util::mix_stream(cfg.seed, a)));
      Agent& agent = *agents.back();
      fr::ingest::ShardedPipelineConfig pipe;
      pipe.num_shards = cfg.num_shards;
      pipe.bin_ns = window_ns;
      pipe.table_options.definition = cfg.definition;
      pipe.on_shard_bin = [&agent](std::size_t, std::size_t, std::size_t bin,
                                   const fr::flowtable::FlowTable& table) {
        const std::lock_guard<std::mutex> lock(agent.mutex);
        auto& flows = agent.window_flows[bin];
        table.for_each_all([&flows](const fr::flowtable::FlowCounter& f) { flows.push_back(f); });
      };
      agent.pipeline = std::make_unique<fr::ingest::ShardedPipeline>(pipe);
    }

    fr::agg::FaultInjectingSummaryChannel channel(cfg.chan, cfg.agents);
    fr::agg::AggregatorConfig agg_config;
    agg_config.agents_expected = cfg.agents;
    agg_config.top_t = cfg.top_t;
    agg_config.window_s = cfg.window_s;
    agg_config.quarantine_after = cfg.quarantine_after;
    agg_config.readmit_after = cfg.readmit_after;
    agg_config.union_capacity = cfg.union_capacity;
    fr::agg::Aggregator aggregator(agg_config);

    std::vector<Window> windows;
    std::uint64_t offers = 0, accepted = 0, lane_mismatch = 0;
    const auto deliver = [&](std::vector<fr::agg::SummaryDelivery> deliveries) {
      for (fr::agg::SummaryDelivery& delivery : deliveries) {
        fr::agg::FlowSummary summary;
        {
          auto span = tracer.span("agg.parse");
          summary = fr::agg::parse_summary(delivery.bytes);
        }
        if (summary.agent_id != delivery.agent_id) ++lane_mismatch;
        auto span = tracer.span("agg.offer");
        ++offers;
        if (aggregator.offer_summary(std::move(summary)) == fr::agg::OfferOutcome::kAccepted) {
          ++accepted;
        }
      }
    };

    const auto close_one = [&](std::uint64_t w) {
      for (std::size_t a = 0; a < cfg.agents; ++a) {
        Agent& agent = *agents[a];
        {
          auto span = tracer.span("ingest.rotate_epoch");
          agent.pipeline->rotate_epoch(static_cast<std::size_t>(w) + 1);
        }
        std::vector<fr::flowtable::FlowCounter> flows;
        {
          const std::lock_guard<std::mutex> lock(agent.mutex);
          if (const auto it = agent.window_flows.find(w); it != agent.window_flows.end()) {
            flows = std::move(it->second);
            agent.window_flows.erase(it);
          }
        }
        traced_flows_ += flows.size();
        fr::flowtable::FlowTable::Options options;
        options.definition = cfg.definition;
        options.initial_capacity = std::max<std::size_t>(64, flows.size() * 2);
        fr::flowtable::FlowTable table(options);
        {
          auto span = tracer.span("flowtable.insert");
          for (const auto& counter : flows) table.insert_counter(counter);
        }
        fr::agg::FlowSummary summary;
        {
          auto span = tracer.span("agg.summarize");
          summary = fr::agg::summarize_table(table, static_cast<std::uint32_t>(a), w,
                                             cfg.sampling_rate);
        }
        const std::uint64_t shed = agent.pipeline->overload_stats().shed_packets;
        summary.shed_packets = shed - agent.prev_shed;
        agent.prev_shed = shed;
        summary.packets_offered = agent.offered;
        summary.packets_sampled = agent.sampled;
        agent.offered = 0;
        agent.sampled = 0;
        std::vector<std::uint8_t> bytes;
        {
          auto span = tracer.span("agg.serialize");
          bytes = fr::agg::serialize(summary);
        }
        traced_summary_bytes_ += bytes.size();
        ++traced_summaries_;
        auto span = tracer.span("agg.channel");
        channel.submit(static_cast<std::uint32_t>(a), w, std::move(bytes));
      }
      std::vector<fr::agg::SummaryDelivery> ready;
      {
        auto span = tracer.span("agg.channel");
        ready = channel.drain_ready(w);
      }
      deliver(std::move(ready));
      auto span = tracer.span("agg.close_window");
      windows.push_back(Window::of(aggregator.close_window(w)));
    };

    std::uint64_t current = 0, max_seen = 0, packets = 0;
    bool any_packet = false;
    const auto close_through = [&](std::uint64_t target) {
      for (; current < target; ++current) close_one(current);
    };

    const auto process_segment = [&](std::span<const fr::packet::PacketRecord> pkts) {
      {
        auto span = tracer.span("agg.route");
        for (auto& agent : agents) agent->routed.clear();
        for (const fr::packet::PacketRecord& pkt : pkts) {
          const fr::packet::FlowKey key = fr::packet::make_flow_key(pkt.tuple, cfg.definition);
          const std::uint64_t lane = fr::packet::FlowKeyHash{}(key) % cfg.agents;
          agents[static_cast<std::size_t>(lane)]->routed.push_back(pkt);
        }
      }
      for (auto& agent_ptr : agents) {
        Agent& agent = *agent_ptr;
        if (agent.routed.empty()) continue;
        agent.offered += agent.routed.size();
        {
          auto span = tracer.span("sampler.select");
          agent.sampler.select_into(agent.routed, agent.selected);
        }
        agent.sampled += agent.selected.size();
        traced_offered_ += agent.routed.size();
        traced_sampled_ += agent.selected.size();
        auto span = tracer.span("ingest.add_batch");
        agent.pipeline->add_batch(0, agent.selected);
      }
    };

    fr::trace::PacketStream stream(trace_);
    std::vector<fr::packet::PacketRecord> batch;
    batch.reserve(cfg.batch_packets);
    while (true) {
      {
        auto span = tracer.span("trace.expand");
        if (stream.next_batch(batch, cfg.batch_packets) == 0) break;
      }
      packets += batch.size();
      std::size_t i = 0;
      while (i < batch.size()) {
        const auto w = static_cast<std::uint64_t>(batch[i].timestamp_ns / window_ns);
        if (w > current) close_through(w);
        std::size_t j = i + 1;
        while (j < batch.size() &&
               static_cast<std::uint64_t>(batch[j].timestamp_ns / window_ns) == w) {
          ++j;
        }
        process_segment(std::span<const fr::packet::PacketRecord>(batch.data() + i, j - i));
        max_seen = std::max(max_seen, w);
        any_packet = true;
        i = j;
      }
    }
    std::uint64_t total_windows = fr::trace::bin_count(trace_.config.duration_s, cfg.window_s);
    if (any_packet) total_windows = std::max(total_windows, max_seen + 1);
    close_through(total_windows);
    {
      std::vector<fr::agg::SummaryDelivery> rest;
      {
        auto span = tracer.span("agg.channel");
        rest = channel.drain_all();
      }
      deliver(std::move(rest));
    }
    for (auto& agent : agents) {
      auto span = tracer.span("ingest.finish");
      agent->pipeline->finish();
      traced_queue_full_ += agent->pipeline->overload_stats().queue_full_events;
    }

    traced_windows_ += windows.size();
    traced_offers_ += offers;
    traced_accepted_ += accepted;
    OpResult result;
    result.items = packets;
    result.ok = lane_mismatch == 0 && packets == total_packets_ && windows == reference_;
    return result;
  }

  void layer_metrics(const TraceTotals& totals, std::size_t passes,
                     LayerValues& out) const override {
    const double n = static_cast<double>(passes);
    const double expand_s = self_per_pass(totals, "trace.expand", passes);
    out["trace.expand_s"] = expand_s;
    out["trace.expand_pkts_per_s"] =
        expand_s > 0.0 ? static_cast<double>(traced_offered_) / n / expand_s : 0.0;
    out["agg.route_s"] = self_per_pass(totals, "agg.route", passes);
    out["sampler.select_s"] = self_per_pass(totals, "sampler.select", passes);
    out["sampler.selected_ratio"] =
        static_cast<double>(traced_sampled_) / static_cast<double>(traced_offered_);
    out["ingest.add_batch_s"] = self_per_pass(totals, "ingest.add_batch", passes);
    out["ingest.rotate_epoch_s"] = self_per_pass(totals, "ingest.rotate_epoch", passes);
    out["ingest.queue_full_events"] = static_cast<double>(traced_queue_full_) / n;
    out["flowtable.insert_s"] = self_per_pass(totals, "flowtable.insert", passes);
    out["flowtable.flows_per_window"] =
        static_cast<double>(traced_flows_) / static_cast<double>(traced_windows_);
    out["agg.summarize_s"] = self_per_pass(totals, "agg.summarize", passes);
    out["agg.serialize_s"] = self_per_pass(totals, "agg.serialize", passes);
    out["agg.summary_bytes"] =
        static_cast<double>(traced_summary_bytes_) / static_cast<double>(traced_summaries_);
    out["agg.parse_s"] = self_per_pass(totals, "agg.parse", passes);
    out["agg.offer_s"] = self_per_pass(totals, "agg.offer", passes);
    out["agg.close_window_s"] = self_per_pass(totals, "agg.close_window", passes);
    out["agg.accept_ratio"] =
        static_cast<double>(traced_accepted_) / static_cast<double>(traced_offers_);
  }

 private:
  [[nodiscard]] fr::agg::FleetConfig config() const {
    fr::agg::FleetConfig cfg;
    cfg.agents = kAgents;
    cfg.split = fr::agg::FleetSplit::kFlow;
    cfg.window_s = kWindowS;
    cfg.sampling_rate = kSamplingRate;
    cfg.seed = seed_;
    cfg.num_shards = 1;
    cfg.top_t = kTopT;
    return cfg;
  }

  fr::trace::FlowTrace trace_;
  std::uint64_t seed_ = 1;
  std::uint64_t total_packets_ = 0;
  std::vector<Window> reference_;
  std::uint64_t traced_offered_ = 0, traced_sampled_ = 0, traced_windows_ = 0;
  std::uint64_t traced_flows_ = 0, traced_queue_full_ = 0;
  std::uint64_t traced_summary_bytes_ = 0, traced_summaries_ = 0;
  std::uint64_t traced_offers_ = 0, traced_accepted_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_churn() { return std::make_unique<FleetChurn>(); }

}  // namespace perfbench
