#include "flowrank/trace/packet_stream.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

#include "flowrank/util/error.hpp"

namespace flowrank::trace {

namespace {
constexpr double kNsPerSec = 1e9;

// Calendar geometry: 2^20 ns (~1 ms) buckets, 2^12 of them per revolution
// of the ring (~4.4 s). At the Sprint 5-tuple rate a bucket holds a few
// dozen packets; a flow whose next packet is more than a revolution away
// is skipped over by the drains in between.
constexpr int kBucketShift = 20;
constexpr std::size_t kCalendarBuckets = 4096;

// A finished flow's slot keeps its timestamp buffer for the next flow
// unless the buffer outgrew this many packets (an elephant's).
constexpr std::size_t kKeptTimestamps = 64;

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * kNsPerSec));
}

// Floor division by the bucket width (an arithmetic shift), so negative
// timestamps fall in the right bucket too.
std::int64_t bucket_of(std::int64_t ns) { return ns >> kBucketShift; }

std::size_t ring_position(std::int64_t bucket) {
  return static_cast<std::size_t>(static_cast<std::uint64_t>(bucket) &
                                  (kCalendarBuckets - 1));
}

const FlowTrace& deref_checked(const std::shared_ptr<const FlowTrace>& trace) {
  if (!trace) throw std::invalid_argument("PacketStream: null trace");
  return *trace;
}
}  // namespace

PacketStream::PacketStream(const FlowTrace& trace, std::uint64_t seed)
    : trace_(trace), seed_(seed), calendar_(kCalendarBuckets) {
  for (std::size_t i = 1; i < trace_.flows.size(); ++i) {
    // Negated so that a NaN start is rejected too.
    if (!(trace_.flows[i].start_s >= trace_.flows[i - 1].start_s)) {
      throw Error(ErrorCategory::kCorruptInput, "packet_stream",
                  "flows not sorted by start_s (flow " + std::to_string(i) +
                      " starts before flow " + std::to_string(i - 1) + ")");
    }
  }
}

PacketStream::PacketStream(std::shared_ptr<const FlowTrace> trace,
                           std::uint64_t seed)
    : PacketStream(deref_checked(trace), seed) {
  owned_ = std::move(trace);
}

PacketStream::PacketStream(const TraceSource& source, std::uint64_t seed)
    : PacketStream(std::make_shared<const FlowTrace>(source.flows()), seed) {}

void PacketStream::place_packets(std::uint32_t flow_index,
                                 std::vector<std::int64_t>& ts) const {
  const auto& flow = trace_.flows[flow_index];
  ts.resize(static_cast<std::size_t>(flow.packets));
  const std::int64_t start_ns = to_ns(flow.start_s);
  if (flow.packets == 1 || flow.duration_s <= 0.0) {
    std::fill(ts.begin(), ts.end(), start_ns);
    return;
  }
  // Stream-independent per-flow RNG: the same flow always gets the same
  // packet placement for a given (trace seed, stream seed) pair.
  auto engine = util::make_lazy_engine(
      trace_.config.seed ^ (seed_ * 0x9e3779b97f4a7c15ULL), flow_index);
  std::uniform_real_distribution<double> unif(0.0, flow.duration_s);
  for (auto& t : ts) t = start_ns + to_ns(unif(engine));
  std::sort(ts.begin(), ts.end());
}

void PacketStream::file(std::uint32_t slot) {
  const LiveFlow& flow = slots_[slot];
  calendar_[ring_position(bucket_of(flow.timestamps[flow.cursor]))].push_back(slot);
}

void PacketStream::activate_through(std::int64_t bucket) {
  while (next_flow_ < trace_.flows.size() &&
         bucket_of(to_ns(trace_.flows[next_flow_].start_s)) <= bucket) {
    const auto flow_index = static_cast<std::uint32_t>(next_flow_++);
    if (trace_.flows[flow_index].packets == 0) continue;
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    LiveFlow& flow = slots_[slot];
    flow.flow_index = flow_index;
    flow.cursor = 0;
    place_packets(flow_index, flow.timestamps);
    file(slot);
  }
}

void PacketStream::drain(std::int64_t bucket) {
  // Swap the bucket out first: a flow whose next packet is exactly one
  // revolution later is filed back under the same ring position.
  std::vector<std::uint32_t>& filed = calendar_[ring_position(bucket)];
  draining_.swap(filed);
  for (const std::uint32_t slot : draining_) {
    LiveFlow& flow = slots_[slot];
    if (bucket_of(flow.timestamps[flow.cursor]) != bucket) {
      filed.push_back(slot);  // due in a later revolution
      continue;
    }
    const std::size_t size = flow.timestamps.size();
    do {
      ready_.push_back(Pending{flow.timestamps[flow.cursor], flow.flow_index, flow.cursor});
      ++flow.cursor;
    } while (flow.cursor < size && bucket_of(flow.timestamps[flow.cursor]) == bucket);
    if (flow.cursor < size) {
      file(slot);
      continue;
    }
    if (flow.timestamps.capacity() > kKeptTimestamps) {
      std::vector<std::int64_t>().swap(flow.timestamps);
    }
    free_slots_.push_back(slot);
  }
  draining_.clear();
}

std::int64_t PacketStream::next_live_bucket() const {
  std::int64_t next = std::numeric_limits<std::int64_t>::max();
  if (next_flow_ < trace_.flows.size()) {
    next = bucket_of(to_ns(trace_.flows[next_flow_].start_s));
  }
  for (const LiveFlow& flow : slots_) {
    if (flow.cursor < flow.timestamps.size()) {
      next = std::min(next, bucket_of(flow.timestamps[flow.cursor]));
    }
  }
  return next;
}

// Drains buckets in time order until one yields packets, then sorts them.
// The order is exact: a flow is activated by the time its start bucket
// drains, and every packet lies at or after its flow's start, so a drained
// bucket holds every packet of that bucket. The stream is therefore the
// global sort of all packets by (timestamp, flow index, packet index).
bool PacketStream::fill_ready() {
  ready_.clear();
  ready_pos_ = 0;
  std::size_t idle = 0;  // buckets drained empty in a row
  while (ready_.empty()) {
    if (free_slots_.size() == slots_.size()) {
      if (next_flow_ == trace_.flows.size()) return false;
      // Nothing live: jump straight to the next flow's start.
      bucket_ = bucket_of(to_ns(trace_.flows[next_flow_].start_s));
    } else if (idle == kCalendarBuckets) {
      // A whole revolution came up empty: jump to the earliest pending
      // packet or flow start instead of stepping through the gap. The
      // O(live flows) scan runs at most once per revolution.
      bucket_ = next_live_bucket();
      idle = 0;
    }
    activate_through(bucket_);
    drain(bucket_);
    ++bucket_;
    ++idle;
  }
  std::sort(ready_.begin(), ready_.end(), [](const Pending& a, const Pending& b) {
    if (a.timestamp_ns != b.timestamp_ns) return a.timestamp_ns < b.timestamp_ns;
    if (a.flow_index != b.flow_index) return a.flow_index < b.flow_index;
    return a.packet_index < b.packet_index;
  });
  return true;
}

packet::PacketRecord PacketStream::record(const Pending& pending) const {
  const auto& flow = trace_.flows[pending.flow_index];
  packet::PacketRecord pkt;
  pkt.timestamp_ns = pending.timestamp_ns;
  pkt.tuple = flow.tuple;
  pkt.size_bytes = trace_.config.packet_size_bytes;
  if (flow.tuple.protocol == packet::Protocol::kTcp) {
    pkt.tcp_seq = pending.packet_index * trace_.config.packet_size_bytes;
  }
  return pkt;
}

std::optional<packet::PacketRecord> PacketStream::next() {
  if (ready_pos_ == ready_.size() && !fill_ready()) return std::nullopt;
  ++emitted_;
  return record(ready_[ready_pos_++]);
}

std::size_t PacketStream::next_batch(std::vector<packet::PacketRecord>& out,
                                     std::size_t max_packets) {
  out.clear();
  while (out.size() < max_packets) {
    if (ready_pos_ == ready_.size() && !fill_ready()) break;
    const std::size_t take =
        std::min(max_packets - out.size(), ready_.size() - ready_pos_);
    for (std::size_t i = 0; i < take; ++i) out.push_back(record(ready_[ready_pos_ + i]));
    ready_pos_ += take;
  }
  emitted_ += out.size();
  return out.size();
}

std::vector<packet::PacketRecord> expand_trace(const FlowTrace& trace,
                                               std::uint64_t seed) {
  PacketStream stream(trace, seed);
  std::vector<packet::PacketRecord> packets;
  packets.reserve(trace.total_packets());
  while (auto pkt = stream.next()) packets.push_back(*pkt);
  return packets;
}

}  // namespace flowrank::trace
