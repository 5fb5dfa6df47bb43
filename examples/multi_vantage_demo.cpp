// Multi-vantage aggregation demo: N real vantage-agent *processes*.
//
// The in-process fleet driver (agg::run_fleet) simulates agents and their
// transport; this demo makes both real. The parent forks one child per
// agent; each child regenerates the shared trace deterministically,
// routes its split of the packets (flow-hash disjoint by default, same
// routing as the fleet driver), samples them with its own Bernoulli
// substream, classifies per window and ships one length-prefixed
// serialized agg::FlowSummary per window up a pipe. The parent is the
// aggregator: it polls every live pipe under a real wall-clock per-window
// deadline (--deadline-ms), offers whatever frames arrive, closes each
// window on time whether or not every agent reported, and emits the
// degraded-coverage row stream through a report::ResultSink.
//
// One agent is SIGKILLed mid-run (--kill-agent N --kill-after-window W,
// defaults 1 and 1; --kill-agent -1 disables). Production is lock-stepped
// — a child writes window w's summary, then blocks on a one-byte ack
// before starting w+1 — so the kill lands while the victim is blocked and
// no summaries beyond the kill point ever exist. From the aggregator's
// side the agent simply goes silent: its windows are charged as misses,
// it is quarantined after `quarantine-after` consecutive misses, and
// coverage degrades to (N-1)/N for the rest of the run. The demo exits
// nonzero unless that whole story is visible in the counters: every
// window closed, the victim reaped as SIGKILLed, at least one quarantine,
// and degraded final coverage.
//
// Usage: multi_vantage_demo [--spec file.spec] [--agents 3]
//        [--duration 20] [--bin 2] [--rates 0.5] [--deadline-ms 250]
//        [--quarantine-after 2] [--kill-agent 1] [--kill-after-window 1]
//        [--out windows.jsonl]
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "flowrank/agg/aggregator.hpp"
#include "flowrank/agg/fleet_run.hpp"
#include "flowrank/agg/flow_summary.hpp"
#include "flowrank/flowtable/flow_table.hpp"
#include "flowrank/packet/flow_key.hpp"
#include "flowrank/report/result_sink.hpp"
#include "flowrank/sampler/packet_sampler.hpp"
#include "flowrank/sim/experiment.hpp"
#include "flowrank/trace/bin_counts.hpp"
#include "flowrank/trace/packet_stream.hpp"
#include "flowrank/util/bytes.hpp"
#include "flowrank/util/cli.hpp"
#include "flowrank/util/error.hpp"
#include "flowrank/util/rng.hpp"

namespace {

using namespace flowrank;

bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocks for the parent's one-byte ack; false on EOF (parent is done or
/// gone) — the child then just exits.
bool await_ack(int fd) {
  std::uint8_t byte = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &byte, 1);
    if (n == 1) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

/// One vantage-agent child: streams its split of the trace, summarizes
/// every window, writes [u32 LE length][serialized FlowSummary] frames to
/// `up_fd` and lock-steps on `down_fd` acks. Never returns.
[[noreturn]] void run_agent(const trace::FlowTrace& trace,
                            const agg::FleetConfig& config, std::uint32_t id,
                            std::uint64_t total_windows, int up_fd,
                            int down_fd) {
  std::signal(SIGPIPE, SIG_IGN);
  const std::int64_t window_ns = trace::bin_length_ns(config.window_s);
  // A one-agent fleet reuses the run seed unmixed, matching both the
  // in-process driver and the direct pipeline (bit-identical summaries).
  const std::uint64_t sampler_seed =
      config.agents == 1 ? config.seed
                         : util::mix_stream(config.seed, id);
  sampler::BernoulliSampler sampler(config.sampling_rate, sampler_seed);

  flowtable::FlowTable::Options options;
  options.definition = config.definition;
  flowtable::FlowTable table(options);
  std::uint64_t offered_window = 0;
  std::uint64_t sampled_window = 0;
  std::uint64_t current = 0;

  const auto ship_window = [&](std::uint64_t w) {
    agg::FlowSummary summary =
        agg::summarize_table(table, id, w, config.sampling_rate);
    summary.packets_offered = offered_window;
    summary.packets_sampled = sampled_window;
    table.clear();
    offered_window = 0;
    sampled_window = 0;
    const std::vector<std::uint8_t> bytes = agg::serialize(summary);
    std::vector<std::uint8_t> frame;
    frame.reserve(4 + bytes.size());
    util::put_u32(frame, static_cast<std::uint32_t>(bytes.size()));
    frame.insert(frame.end(), bytes.begin(), bytes.end());
    if (!write_all(up_fd, frame)) ::_exit(2);
    if (!await_ack(down_fd)) ::_exit(0);  // parent finished (or died) early
  };

  trace::PacketStream stream(trace);
  std::vector<packet::PacketRecord> batch;
  std::vector<packet::PacketRecord> routed;
  std::vector<packet::PacketRecord> selected;
  while (stream.next_batch(batch, config.batch_packets) > 0) {
    std::size_t i = 0;
    while (i < batch.size()) {
      const std::uint64_t w =
          static_cast<std::uint64_t>(batch[i].timestamp_ns / window_ns);
      std::size_t j = i + 1;
      while (j < batch.size() &&
             static_cast<std::uint64_t>(batch[j].timestamp_ns / window_ns) ==
                 w) {
        ++j;
      }
      // Stragglers past the declared duration fall outside the run's
      // window count; the demo closes exactly total_windows windows.
      if (w >= total_windows) {
        i = j;
        continue;
      }
      while (current < w) ship_window(current++);
      routed.clear();
      for (std::size_t p = i; p < j; ++p) {
        const packet::PacketRecord& pkt = batch[p];
        if (config.agents > 1) {
          const packet::FlowKey key =
              packet::make_flow_key(pkt.tuple, config.definition);
          const std::uint64_t hash = packet::FlowKeyHash{}(key);
          const std::uint64_t lane =
              config.split == agg::FleetSplit::kFlow
                  ? hash % config.agents
                  : util::mix_stream(
                        hash, static_cast<std::uint64_t>(pkt.timestamp_ns)) %
                        config.agents;
          if (lane != id) continue;
        }
        routed.push_back(pkt);
      }
      if (!routed.empty()) {
        offered_window += routed.size();
        sampler.select_into(routed, selected);
        sampled_window += selected.size();
        table.add_batch(selected);
      }
      i = j;
    }
  }
  while (current < total_windows) ship_window(current++);
  ::_exit(0);
}

/// Parent-side state for one agent's transport lane.
struct Lane {
  pid_t pid = -1;
  int up_fd = -1;    ///< child → parent summary frames
  int down_fd = -1;  ///< parent → child acks (lock-step pacing)
  std::vector<std::uint8_t> buffer;
  std::uint64_t frames = 0;  ///< complete frames offered so far
  bool open = true;
};

std::uint32_t frame_length(std::span<const std::uint8_t> prefix) {
  util::ByteReader reader(prefix, ErrorCategory::kCorruptSummary,
                          "demo frame");
  return reader.get_u32();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flowrank;
  using Clock = std::chrono::steady_clock;
  try {
    const util::Cli cli(argc, argv);

    // Full spec grammar, forced into aggregate mode and the packet model
    // the fleet runs (the echo records both). The batch defaults carry a
    // 4-rate grid; each agent samples one live stream.
    sim::ExperimentSpec spec = sim::experiment_from_cli(cli);
    sim::apply_experiment_entry(spec, "model", "packet");
    sim::apply_experiment_entry(spec, "mode", "aggregate");
    if (spec.sampling_rates.size() != 1) spec.sampling_rates = {0.5};
    if (spec.name == "scenario") spec.name = "multi-vantage demo";

    const agg::FleetConfig config = sim::make_fleet_config(spec);
    const int kill_agent = cli.get_int("kill-agent", 1);
    const int kill_after_window = cli.get_int("kill-after-window", 1);
    const bool kill_enabled =
        kill_agent >= 0 &&
        static_cast<std::size_t>(kill_agent) < config.agents;

    const auto source = sim::make_trace_source(spec);
    const trace::FlowTrace trace = source->flows();
    const std::uint64_t total_windows = static_cast<std::uint64_t>(
        trace::bin_count(trace.config.duration_s, config.window_s));

    std::cout << "multi-vantage demo: " << config.agents << " agent processes, "
              << total_windows << " windows of " << config.window_s
              << " s, rate " << config.sampling_rate * 100 << "%, deadline "
              << config.deadline_ms << " ms";
    if (kill_enabled) {
      std::cout << "; SIGKILL agent " << kill_agent << " after window "
                << kill_after_window;
    }
    std::cout << "\n";

    // Fork the fleet. The materialized trace is shared copy-on-write; each
    // child re-routes and re-samples its own split deterministically.
    std::vector<Lane> lanes(config.agents);
    for (std::size_t a = 0; a < config.agents; ++a) {
      int up[2] = {-1, -1};
      int down[2] = {-1, -1};
      if (::pipe(up) != 0 || ::pipe(down) != 0) {
        throw std::runtime_error("pipe() failed");
      }
      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork() failed");
      if (pid == 0) {
        for (std::size_t b = 0; b < a; ++b) {
          ::close(lanes[b].up_fd);
          ::close(lanes[b].down_fd);
        }
        ::close(up[0]);
        ::close(down[1]);
        run_agent(trace, config, static_cast<std::uint32_t>(a), total_windows,
                  up[1], down[0]);
      }
      ::close(up[1]);
      ::close(down[0]);
      lanes[a].pid = pid;
      lanes[a].up_fd = up[0];
      lanes[a].down_fd = down[1];
    }
    std::signal(SIGPIPE, SIG_IGN);

    agg::AggregatorConfig agg_config;
    agg_config.agents_expected = config.agents;
    agg_config.top_t = config.top_t;
    agg_config.window_s = config.window_s;
    agg_config.quarantine_after = config.quarantine_after;
    agg_config.readmit_after = config.readmit_after;
    agg_config.union_capacity = config.union_capacity;
    agg::Aggregator aggregator(agg_config);

    report::OwnedSink out;
    std::size_t rows = 0;
    if (cli.has("out")) {
      out = report::make_sink(cli.get_string("out", ""), "");
      report::RunMetadata meta;
      meta.experiment = spec.name;
      meta.seed = spec.seed;
      meta.spec_echo = sim::experiment_echo(spec);
      meta.spec_echo.emplace_back("kill-agent",
                                  std::to_string(kill_enabled ? kill_agent : -1));
      meta.spec_echo.emplace_back("kill-after-window", std::to_string(kill_after_window));
      out.sink->open(agg::window_columns(), meta);
    }

    bool killed = false;
    // Reads whatever a lane has, offers every complete frame, acks it so
    // the child starts its next window — unless this frame is the kill
    // point, in which case the victim dies blocked on the ack and nothing
    // past the kill point is ever produced.
    const auto service_lane = [&](std::size_t a) {
      Lane& lane = lanes[a];
      std::uint8_t chunk[65536];
      const ssize_t n = ::read(lane.up_fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) return;
        throw std::runtime_error("read() failed on agent pipe");
      }
      if (n == 0) {
        ::close(lane.up_fd);
        if (lane.down_fd >= 0) ::close(lane.down_fd);
        lane.down_fd = -1;
        lane.open = false;
        return;
      }
      lane.buffer.insert(lane.buffer.end(), chunk, chunk + n);
      while (lane.buffer.size() >= 4) {
        const std::uint32_t len =
            frame_length(std::span(lane.buffer.data(), 4));
        if (lane.buffer.size() < 4 + static_cast<std::size_t>(len)) break;
        (void)aggregator.offer(
            static_cast<std::uint32_t>(a),
            std::span<const std::uint8_t>(lane.buffer.data() + 4, len));
        const std::uint64_t delivered_window = lane.frames++;
        lane.buffer.erase(lane.buffer.begin(),
                          lane.buffer.begin() + 4 + static_cast<std::size_t>(len));
        if (kill_enabled && !killed &&
            a == static_cast<std::size_t>(kill_agent) &&
            delivered_window >= static_cast<std::uint64_t>(kill_after_window)) {
          killed = true;
          std::cout << "parent: SIGKILL agent " << a << " (delivered window "
                    << delivered_window << ")\n";
          ::kill(lane.pid, SIGKILL);
          continue;  // no ack: the victim dies blocked, producing nothing more
        }
        if (lane.down_fd >= 0) {
          const std::uint8_t ack = 1;
          (void)write_all(lane.down_fd, std::span(&ack, 1));
        }
      }
    };

    double last_coverage = 1.0;
    for (std::uint64_t w = 0; w < total_windows; ++w) {
      const auto deadline =
          Clock::now() + std::chrono::milliseconds(config.deadline_ms);
      for (;;) {
        bool waiting = false;
        for (const Lane& lane : lanes) {
          if (lane.open && lane.frames <= w) waiting = true;
        }
        if (!waiting) break;
        const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        if (remaining.count() <= 0) break;  // deadline: close without them
        std::vector<pollfd> fds;
        std::vector<std::size_t> fd_lane;
        for (std::size_t a = 0; a < lanes.size(); ++a) {
          if (!lanes[a].open) continue;
          fds.push_back({lanes[a].up_fd, POLLIN, 0});
          fd_lane.push_back(a);
        }
        if (fds.empty()) break;
        const int ready = ::poll(fds.data(), fds.size(),
                                 static_cast<int>(remaining.count()));
        if (ready < 0) {
          if (errno == EINTR) continue;
          throw std::runtime_error("poll() failed");
        }
        if (ready == 0) break;  // deadline
        for (std::size_t i = 0; i < fds.size(); ++i) {
          if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
            service_lane(fd_lane[i]);
          }
        }
      }
      const agg::MergedWindow window = aggregator.close_window(w);
      last_coverage = window.coverage_fraction;
      if (out.sink) out.sink->emit(rows++, agg::window_row(window));
      std::cout << "window " << window.epoch << ": coverage "
                << window.agents_merged << "/" << window.agents_expected
                << ", " << window.merged_flows << " flows, est "
                << window.estimated_packets << " pkts"
                << (window.missed ? (", missed " + std::to_string(window.missed))
                                  : "")
                << (window.quarantined
                        ? (", quarantined " + std::to_string(window.quarantined))
                        : "")
                << "\n";
    }

    // Run is over: release the children (EOF on their ack pipes), drain
    // any final in-flight frames (counted late) and reap the fleet.
    for (Lane& lane : lanes) {
      if (lane.open && lane.down_fd >= 0) {
        ::close(lane.down_fd);
        lane.down_fd = -1;
      }
    }
    for (std::size_t a = 0; a < lanes.size(); ++a) {
      while (lanes[a].open) service_lane(a);
    }
    bool victim_sigkilled = false;
    for (std::size_t a = 0; a < lanes.size(); ++a) {
      int status = 0;
      if (::waitpid(lanes[a].pid, &status, 0) == lanes[a].pid &&
          WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL &&
          kill_enabled && a == static_cast<std::size_t>(kill_agent)) {
        victim_sigkilled = true;
      }
    }
    if (out.sink) out.sink->close(rows);

    const agg::AggregatorCounters& c = aggregator.counters();
    std::cout << "done: " << c.windows_closed << " windows, merged "
              << c.summaries_merged << "/" << c.summaries_offered
              << " summaries, missed " << c.missed_summaries << ", late "
              << c.late_summaries << ", corrupt " << c.corrupt_summaries
              << ", quarantines " << c.quarantines << ", readmissions "
              << c.readmissions << "\n";

    // Self-validation: the advertised failure story must actually be in
    // the counters, or the demo (and the CI smoke job on it) fails.
    std::vector<std::string> violations;
    if (rows != 0 && rows != total_windows) {
      violations.push_back("row count != window count");
    }
    if (c.windows_closed != total_windows) {
      violations.push_back("not every window closed");
    }
    if (kill_enabled) {
      if (!victim_sigkilled) violations.push_back("victim was not SIGKILLed");
      if (c.missed_summaries == 0) {
        violations.push_back("kill produced no missed windows");
      }
      if (c.quarantines == 0) {
        violations.push_back("victim was never quarantined");
      }
      if (!(last_coverage < 1.0)) {
        violations.push_back("final coverage not degraded");
      }
    }
    for (const std::string& v : violations) {
      std::cerr << "demo contract violated: " << v << "\n";
    }
    return violations.empty() ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
