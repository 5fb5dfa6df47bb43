// Trace inversion: recover original traffic properties from a sampled
// stream — total flows, mean flow size (Duffield-style estimators, related
// work [9]) and per-flow sizes with confidence intervals. To pick a rate
// for a target accuracy, see sampling_rate_planner.cpp.
//
// Usage: example_trace_inversion [--rate 0.02] [--duration 300]
#include <iostream>
#include <vector>

#include "flowrank/estimators/inversion.hpp"
#include "flowrank/flowtable/binned_classifier.hpp"
#include "flowrank/sampler/packet_sampler.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/util/cli.hpp"
#include "flowrank/util/table.hpp"

int main(int argc, char** argv) {
  const flowrank::util::Cli cli(argc, argv);
  const double rate = cli.get_double("rate", 0.02);

  auto trace_cfg = flowrank::trace::FlowTraceConfig::sprint_5tuple(1.5, /*seed=*/5);
  trace_cfg.duration_s = cli.get_double("duration", 300.0);
  trace_cfg.flow_rate_per_s = 800.0;
  const auto trace = flowrank::trace::generate_flow_trace(trace_cfg);

  // One measurement interval over the whole trace: sample and classify.
  std::vector<flowrank::flowtable::FlowCounter> sampled_flows;
  flowrank::flowtable::BinnedClassifier classifier(
      {flowrank::packet::FlowDefinition::kFiveTuple, 0},
      static_cast<std::int64_t>(trace_cfg.duration_s * 1e9),
      [&](std::size_t, std::vector<flowrank::flowtable::FlowCounter> flows) {
        sampled_flows = std::move(flows);
      });
  flowrank::sampler::BernoulliSampler sampler(rate, /*seed=*/8);
  flowrank::trace::PacketStream stream(trace);
  std::uint64_t sampled_packets = 0;
  while (auto pkt = stream.next()) {
    if (!sampler.offer(*pkt)) continue;
    classifier.add(*pkt);
    ++sampled_packets;
  }
  classifier.finish();

  std::cout << "sampled " << sampled_packets << " packets at " << rate * 100
            << "%; " << sampled_flows.size() << " flows seen\n\n";

  // Population inversion vs ground truth.
  const auto population = flowrank::estimators::estimate_population(
      sampled_flows.size(), sampled_packets, rate, *trace_cfg.size_dist);
  flowrank::util::Table pop({"quantity", "true", "estimated"});
  pop.add_row(std::string("total flows"), trace.flows.size(),
              population.total_flows);
  pop.add_row(std::string("mean flow size (pkts)"),
              static_cast<double>(trace.total_packets()) /
                  static_cast<double>(trace.flows.size()),
              population.mean_flow_packets);
  pop.print(std::cout);

  // Per-flow inversion for the largest sampled flows.
  std::cout << "\nlargest sampled flows, inverted sizes with 95% CIs:\n";
  auto top = flowrank::flowtable::top_k(sampled_flows, 8);
  flowrank::util::Table sizes({"sampled_pkts", "estimate", "ci95_low", "ci95_high"});
  for (const auto& f : top) {
    const auto est = flowrank::estimators::scaled_size_estimate(f.packets, rate);
    sizes.add_row(f.packets, est.estimate, est.ci95_low, est.ci95_high);
  }
  sizes.print(std::cout);
  return 0;
}
