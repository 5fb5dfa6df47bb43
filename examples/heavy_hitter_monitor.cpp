// Heavy-hitter monitor: the paper's motivating application (traffic
// engineering / anomaly detection wants the largest flows, continuously)
// run as a live monitor instead of a batch job.
//
// monitor::MonitorLoop pulls batches from any trace::TraceSource through
// the batched Bernoulli sampler into the sharded ingest path under
// rolling measurement windows, inverts each window's sampled counts by
// the effective sampling rate, folds them into EWMA-smoothed per-flow
// estimates and emits periodic top-t snapshots with rank-churn deltas
// and full fault/shed accounting. Every spec key works here too —
// the spec grammar's monitor/fault.* keys configure the loop, so e.g.
//
//   example_heavy_hitter_monitor --rates 0.05 --bin 30 --t 10 \
//       --fault.corrupt 0.01 --fault.stall-every 64 --fault.stall-ms 20 \
//       --watchdog-ms 5 --out snapshots.jsonl
//
// runs a fault-injected monitor (corrupt records dropped and counted, a
// stalling source caught by the watchdog and survived via early epoch
// rotation) and records the snapshot time-series through a structured
// report::ResultSink.
//
// SIGINT/SIGTERM request a clean shutdown: the loop finishes the batch in
// flight, folds the current window, the final snapshot is emitted and the
// sink is flushed + closed — no torn output, even mid-trace.
//
// Usage: example_heavy_hitter_monitor [--spec file.spec]
//        [--rates 0.05] [--bin 60] [--t 10] [--shards 4]
//        [--overload shed] [--budget N] [--fault.* ...]
//        [--out snapshots.csv|.jsonl]
#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>

#include "flowrank/monitor/monitor_loop.hpp"
#include "flowrank/report/result_sink.hpp"
#include "flowrank/sim/experiment.hpp"
#include "flowrank/util/cli.hpp"
#include "flowrank/util/error.hpp"
#include "flowrank/util/table.hpp"

namespace {

// Async-signal-safe stop request; MonitorLoop polls it between batches.
std::atomic<bool> g_stop{false};

extern "C" void request_stop(int) { g_stop.store(true); }

std::string format_key(const flowrank::packet::FlowKey& key) {
  char buffer[36];
  std::snprintf(buffer, sizeof(buffer), "%016llx:%016llx",
                static_cast<unsigned long long>(key.hi),
                static_cast<unsigned long long>(key.lo));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flowrank;
  try {
    const util::Cli cli(argc, argv);

    // The full spec grammar (file + --key overrides), forced into
    // monitor mode and the packet model the monitor runs (the echo
    // records both). The batch defaults carry a 4-rate grid; a monitor
    // watches one live stream, so default to one moderate rate unless the
    // spec or CLI picked one.
    sim::ExperimentSpec spec = sim::experiment_from_cli(cli);
    sim::apply_experiment_entry(spec, "model", "packet");
    sim::apply_experiment_entry(spec, "mode", "monitor");
    if (spec.sampling_rates.size() != 1) spec.sampling_rates = {0.05};
    if (spec.name == "scenario") spec.name = "heavy-hitter monitor";

    monitor::MonitorConfig config = sim::make_monitor_config(spec);
    config.stop_flag = &g_stop;

    report::OwnedSink out;
    std::size_t rows = 0;
    if (cli.has("out")) {
      out = report::make_sink(cli.get_string("out", ""), "");
      report::RunMetadata meta;
      meta.experiment = spec.name;
      meta.seed = spec.seed;
      meta.spec_echo = sim::experiment_echo(spec);
      out.sink->open(monitor::snapshot_columns(), meta);
    }

    std::signal(SIGINT, request_stop);
    std::signal(SIGTERM, request_stop);

    std::cout << "monitor: " << spec.name << " — rate "
              << config.sampling_rate * 100 << "%, window " << config.window_s
              << " s, top-" << config.top_t
              << (config.overload == ingest::OverloadPolicy::kShed ? ", shed"
                                                                   : ", block")
              << " (SIGINT folds the current window and flushes)\n";

    monitor::MonitorLoop loop(sim::make_trace_source(spec), config);
    const monitor::MonitorReport report =
        loop.run([&](const monitor::MonitorSnapshot& snap) {
          if (out.sink) out.sink->emit(rows++, monitor::snapshot_row(snap));
          std::cout << "\nsnapshot " << snap.index << " @ " << snap.time_s
                    << " s: " << snap.window_flows << " flows, "
                    << snap.window_packets << " sampled packets, churn +"
                    << snap.churn_entered << "/-" << snap.churn_exited
                    << ", effective rate " << snap.effective_rate * 100 << "%\n";
          util::Table table({"rank", "flow", "est_pkts_per_window"});
          for (std::size_t r = 0; r < snap.top.size(); ++r) {
            table.add_row(r + 1, format_key(snap.top[r].key),
                          snap.top[r].estimate);
          }
          table.print(std::cout);
        });
    if (out.sink) out.sink->close(rows);

    const monitor::MonitorCounters& c = report.counters;
    std::cout << "\ndone: " << c.windows << " windows, " << report.snapshots
              << " snapshots, peak " << report.peak_tracked_flows
              << " tracked flows\n"
              << "offered " << c.packets_offered << ", sampled "
              << c.packets_sampled << ", ingested " << c.packets_ingested
              << ", shed " << c.shed_packets + c.pipeline_shed_packets
              << ", corrupt " << c.corrupt_records << ", truncated "
              << c.truncated_records << ", stalls " << c.stall_events
              << " (rotations " << c.watchdog_rotations << ")\n";
    if (g_stop.load()) std::cout << "stopped by signal; output is complete\n";
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
