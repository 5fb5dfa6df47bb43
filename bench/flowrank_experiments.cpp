// The one experiment driver: runs any declarative sim::ExperimentSpec —
// paper figures, ablations, estimator-augmented workloads — and streams
// structured rows to a report::ResultSink. No per-experiment C++.
//
// Usage:
//   flowrank_experiments --list [--dir scenarios/figures]
//   flowrank_experiments --spec scenarios/figures/fig04_ranking_vs_t_5tuple.spec
//   flowrank_experiments --spec ... --out results.jsonl        # format by extension
//   flowrank_experiments --spec ... --out out.csv --format csv
//   flowrank_experiments --spec ... --sweep-rate "0.01..0.5 log 4" --threads 0
//   flowrank_experiments --duration 24 --flow-rate 30 --trace-seed 5 \
//       --export-trace scenarios/tiny_sprint.frt1
//
// Every spec key doubles as a `--key value` override and every sweep axis
// as `--sweep-<param>`, so checked-in specs can be rescaled, re-seeded or
// re-gridded from the command line without editing them. See
// src/flowrank/sim/experiment.hpp for the spec grammar and
// docs/ARCHITECTURE.md for the engine.
//
// `--export-trace out.frt1` materializes the spec's trace source and
// writes its flow records instead of running the experiment — the
// declarative way to produce replay files (see scenarios/README.md).
#include <algorithm>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "flowrank/sim/experiment.hpp"
#include "flowrank/trace/trace_io.hpp"
#include "flowrank/util/cli.hpp"

namespace {

int list_specs(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("not a directory: " + dir +
                             " (pass --dir to point at a spec collection)");
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".spec") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cout << "no .spec files in " << dir << "\n";
    return 0;
  }
  for (const auto& path : files) {
    try {
      const auto spec = flowrank::sim::parse_experiment_file(path.string());
      std::cout << path.string() << "\n    " << spec.name;
      if (!spec.description.empty()) std::cout << " — " << spec.description;
      std::cout << "\n";
    } catch (const std::exception& e) {
      std::cout << path.string() << "\n    PARSE ERROR: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const flowrank::util::Cli cli(argc, argv);

    // Strict option validation: a typoed key must not silently run a
    // default experiment.
    const auto& keys = flowrank::sim::experiment_keys();
    for (const auto& name : cli.option_names()) {
      const bool driver = name == "spec" || name == "out" || name == "format" ||
                          name == "list" || name == "dir" || name == "export-trace";
      const bool sweep = name.rfind("sweep-", 0) == 0 && name.size() > 6;
      if (driver || sweep || std::find(keys.begin(), keys.end(), name) != keys.end()) {
        continue;
      }
      throw std::invalid_argument("unknown option --" + name +
                                  " (see src/flowrank/sim/experiment.hpp)");
    }
    // A bare spec path (forgotten --spec) must not silently run the
    // default experiment.
    if (!cli.positional().empty()) {
      throw std::invalid_argument("unexpected argument '" + cli.positional().front() +
                                  "' (did you mean --spec " +
                                  cli.positional().front() + "?)");
    }

    if (cli.get_bool("list", false)) {
      return list_specs(cli.get_string("dir", "scenarios/figures"));
    }

    const auto spec = flowrank::sim::experiment_from_cli(cli);
    const std::string export_path = cli.get_string("export-trace", "");
    if (!export_path.empty()) {
      const auto trace = flowrank::sim::make_trace_source(spec)->flows();
      flowrank::trace::save_flow_records(export_path, trace.flows);
      std::cout << "wrote " << trace.flows.size() << " flows to " << export_path
                << "\n";
      return 0;
    }
    auto sink = flowrank::report::make_sink(cli.get_string("out", "-"),
                                            cli.get_string("format", ""));
    const std::size_t rows = flowrank::sim::run_experiment(spec, *sink.sink);
    if (cli.get_string("out", "-") != "-") {
      std::cerr << spec.name << ": wrote " << rows << " rows to "
                << cli.get_string("out", "-") << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "flowrank_experiments: " << e.what() << "\n";
    return 1;
  }
}
