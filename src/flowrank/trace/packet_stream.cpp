#include "flowrank/trace/packet_stream.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
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
constexpr std::int64_t kBucketNs = std::int64_t{1} << kBucketShift;

// Bucket sort geometry: a drained bucket of at most kInsertionSortMax
// packets is insertion-sorted, after a counting pass on the top
// kPresortBits bits of the offset once it holds more than kPresortMin; a
// larger bucket is radix-sorted.
constexpr std::size_t kInsertionSortMax = 64;
constexpr std::size_t kPresortMin = 12;
constexpr int kPresortBits = 6;

// Longest duration placement accepts: its nanoseconds fit an int64_t.
constexpr double kMaxDurationS = 9.0e9;

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * kNsPerSec));
}

// E_j of a flow's placement (see packet_stream.hpp).
double spacing(std::uint64_t key, std::uint64_t j) {
  return -std::log(util::unit_open_from_bits(util::counter_word(key, j)));
}

// S of a flow's placement (see packet_stream.hpp): -log(U_0 ⋯ U_n) from a
// running product, rescaled exactly by 2^512 whenever it drops below
// 2^-512, so the pass costs one multiply per packet and a single log.
double spacing_total(std::uint64_t key, std::uint64_t packets) {
  constexpr double kRescale = 0x1p512;
  constexpr double kLogRescale = 0x1.62e42fefa39efp+8;  // 512 times the double ln 2
  double product = 1.0;
  double rescales = 0.0;
  for (std::uint64_t j = 0; j <= packets; ++j) {
    product *= util::unit_open_from_bits(util::counter_word(key, j));
    if (product < 1.0 / kRescale) {
      product *= kRescale;
      rescales += 1.0;
    }
  }
  return rescales * kLogRescale - std::log(product);
}

// A packet's offset from its flow's start: min(P_k · (D_ns / S), D_ns)
// rounded half up. The conversion truncates a non-negative value, so it is
// a floor; it costs a fraction of std::llround's libm call.
std::int64_t placed_offset(double prefix, double scale, double duration_ns) {
  return static_cast<std::int64_t>(std::min(prefix * scale, duration_ns) + 0.5);
}

// Floor division by the bucket width (an arithmetic shift), so negative
// timestamps fall in the right bucket too.
std::int64_t bucket_of(std::int64_t ns) { return ns >> kBucketShift; }

std::size_t ring_position(std::int64_t bucket) {
  return static_cast<std::size_t>(static_cast<std::uint64_t>(bucket) &
                                  (kCalendarBuckets - 1));
}

// A packet's sort key within its bucket: (offset << 32 | flow index). The
// offset is below 2^kBucketShift, so the key orders by timestamp, then by
// flow index.
std::uint64_t pack_key(std::int64_t offset_ns, std::uint32_t flow_index) {
  return (static_cast<std::uint64_t>(offset_ns) << 32) | flow_index;
}

template <class Item>
void insertion_sort_by_key(std::vector<Item>& items) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    const Item item = items[i];
    std::size_t j = i;
    for (; j > 0 && items[j - 1].key > item.key; --j) items[j] = items[j - 1];
    items[j] = item;
  }
}

// One stable counting-sort pass on the digit (key >> shift) & mask, from
// `items` through `scratch` (the two are swapped).
template <class Item>
void counting_pass(std::vector<Item>& items, std::vector<Item>& scratch, int shift,
                   std::uint32_t mask) {
  std::array<std::uint32_t, 256> start{};
  for (const Item& item : items) ++start[(item.key >> shift) & mask];
  std::uint32_t sum = 0;
  for (std::uint32_t d = 0; d <= mask; ++d) sum += std::exchange(start[d], sum);
  scratch.resize(items.size());
  for (const Item& item : items) scratch[start[(item.key >> shift) & mask]++] = item;
  items.swap(scratch);
}

// Stable sort on `key`. A bucket usually holds a few dozen packets in the
// order their flows were filed: a counting pass on the offset's top bits
// leaves them nearly sorted and an insertion sort finishes. A crowded
// bucket takes an LSD radix sort over 8-bit digits that skips the digits
// every key shares.
template <class Item>
void stable_sort_by_key(std::vector<Item>& items, std::vector<Item>& scratch) {
  if (items.size() <= kInsertionSortMax) {
    if (items.size() > kPresortMin) {
      counting_pass(items, scratch, 32 + kBucketShift - kPresortBits,
                    (1u << kPresortBits) - 1);
    }
    insertion_sort_by_key(items);
    return;
  }
  std::uint64_t all_and = ~std::uint64_t{0};
  std::uint64_t all_or = 0;
  for (const Item& item : items) {
    all_and &= item.key;
    all_or |= item.key;
  }
  const std::uint64_t varying = all_and ^ all_or;
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) != 0) counting_pass(items, scratch, shift, 0xff);
  }
}

const FlowTrace& deref_checked(const std::shared_ptr<const FlowTrace>& trace) {
  if (!trace) throw std::invalid_argument("PacketStream: null trace");
  return *trace;
}
}  // namespace

PacketStream::PacketStream(const FlowTrace& trace, std::uint64_t seed)
    : trace_(trace), seed_(seed), calendar_(kCalendarBuckets, kNoSlot) {
  for (std::size_t i = 0; i < trace_.flows.size(); ++i) {
    if (trace_.flows[i].packets > std::numeric_limits<std::uint32_t>::max()) {
      throw Error(ErrorCategory::kCorruptInput, "packet_stream",
                  "flow " + std::to_string(i) + " has more than 2^32 - 1 packets");
    }
    // Placement converts an offset of up to D · 1e9 to a 64-bit integer;
    // a NaN, infinite or centuries-long duration has no such value.
    if (!(std::fabs(trace_.flows[i].duration_s) < kMaxDurationS)) {
      throw Error(ErrorCategory::kCorruptInput, "packet_stream",
                  "flow " + std::to_string(i) +
                      " has a non-finite or out-of-range duration_s");
    }
    if (i == 0) continue;
    // Negated so that a NaN start is rejected too.
    if (!(trace_.flows[i].start_s >= trace_.flows[i - 1].start_s)) {
      throw Error(ErrorCategory::kCorruptInput, "packet_stream",
                  "flows not sorted by start_s (flow " + std::to_string(i) +
                      " starts before flow " + std::to_string(i - 1) + ")");
    }
  }
  next_start_bucket_ = start_bucket(0);
}

PacketStream::PacketStream(std::shared_ptr<const FlowTrace> trace,
                           std::uint64_t seed)
    : PacketStream(deref_checked(trace), seed) {
  owned_ = std::move(trace);
}

PacketStream::PacketStream(const TraceSource& source, std::uint64_t seed)
    : PacketStream(std::make_shared<const FlowTrace>(source.flows()), seed) {}

// Sets up `flow` for its packet 0: D_ns / S and P_0.
void PacketStream::place_first(std::uint32_t flow_index, LiveFlow& flow) const {
  const auto& record = trace_.flows[flow_index];
  flow.flow_index = flow_index;
  flow.packets = static_cast<std::uint32_t>(record.packets);
  flow.cursor = 0;
  flow.start_ns = to_ns(record.start_s);
  flow.next_ns = flow.start_ns;
  flow.duration_ns = 0.0;
  if (record.packets == 1 || record.duration_s <= 0.0) return;
  flow.duration_ns = record.duration_s * kNsPerSec;
  flow.key = util::mix_streams(trace_.config.seed, seed_, flow_index);
  flow.scale = flow.duration_ns / spacing_total(flow.key, record.packets);
  flow.prefix = spacing(flow.key, 0);
  flow.next_ns = flow.start_ns + placed_offset(flow.prefix, flow.scale, flow.duration_ns);
}

void PacketStream::file(std::uint32_t slot) {
  std::uint32_t& head = calendar_[ring_position(bucket_of(slots_[slot].next_ns))];
  slots_[slot].next_filed = head;
  head = slot;
}

std::int64_t PacketStream::start_bucket(std::size_t flow) const {
  return flow < trace_.flows.size() ? bucket_of(to_ns(trace_.flows[flow].start_s))
                                    : std::numeric_limits<std::int64_t>::max();
}

void PacketStream::activate_through(std::int64_t bucket) {
  while (next_start_bucket_ <= bucket) {
    const auto flow_index = static_cast<std::uint32_t>(next_flow_++);
    next_start_bucket_ = start_bucket(next_flow_);
    if (trace_.flows[flow_index].packets == 0) continue;
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      tuples_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    place_first(flow_index, slots_[slot]);
    tuples_[slot] = trace_.flows[flow_index].tuple;
    file(slot);
  }
}

void PacketStream::drain(std::int64_t bucket) {
  // Unlink the bucket's list first: a flow whose next packet is exactly
  // one revolution later is filed back under the same ring position.
  std::uint32_t slot = std::exchange(calendar_[ring_position(bucket)], kNoSlot);
  ready_base_ns_ = bucket * kBucketNs;
  while (slot != kNoSlot) {
    LiveFlow& flow = slots_[slot];
    const std::uint32_t next_slot = flow.next_filed;
    if (bucket_of(flow.next_ns) != bucket) {
      file(slot);  // due in a later revolution
      slot = next_slot;
      continue;
    }
    // Emit every packet due in this bucket, placing each next one as the
    // previous is pushed.
    do {
      ready_.push_back(Pending{pack_key(flow.next_ns - ready_base_ns_, flow.flow_index),
                               flow.cursor, slot});
      if (++flow.cursor == flow.packets) break;
      if (flow.duration_ns > 0.0) {
        flow.prefix += spacing(flow.key, flow.cursor);
        flow.next_ns =
            flow.start_ns + placed_offset(flow.prefix, flow.scale, flow.duration_ns);
      }
    } while (bucket_of(flow.next_ns) == bucket);
    if (flow.cursor < flow.packets) {
      file(slot);
    } else {
      free_slots_.push_back(slot);
    }
    slot = next_slot;
  }
}

std::int64_t PacketStream::next_live_bucket() const {
  std::int64_t next = next_start_bucket_;
  for (const LiveFlow& flow : slots_) {
    if (flow.cursor < flow.packets) next = std::min(next, bucket_of(flow.next_ns));
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
      bucket_ = next_start_bucket_;
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
  // drain() pushed each flow's packets in cursor order, so a stable sort
  // on (offset, flow index) leaves equal keys in packet-index order.
  stable_sort_by_key(ready_, sort_scratch_);
  return true;
}

void PacketStream::write_record(const Pending& pending, packet::PacketRecord& pkt) const {
  const packet::FiveTuple& tuple = tuples_[pending.slot];
  pkt.timestamp_ns = ready_base_ns_ + static_cast<std::int64_t>(pending.key >> 32);
  pkt.tuple = tuple;
  pkt.size_bytes = trace_.config.packet_size_bytes;
  pkt.tcp_seq = tuple.protocol == packet::Protocol::kTcp
                    ? pending.packet_index * trace_.config.packet_size_bytes
                    : 0;
}

std::optional<packet::PacketRecord> PacketStream::next() {
  if (ready_pos_ == ready_.size() && !fill_ready()) return std::nullopt;
  ++emitted_;
  packet::PacketRecord pkt;
  write_record(ready_[ready_pos_++], pkt);
  return pkt;
}

std::size_t PacketStream::next_batch(std::vector<packet::PacketRecord>& out,
                                     std::size_t max_packets) {
  out.clear();
  while (out.size() < max_packets) {
    if (ready_pos_ == ready_.size() && !fill_ready()) break;
    const std::size_t have = out.size();
    const std::size_t take = std::min(max_packets - have, ready_.size() - ready_pos_);
    out.resize(have + take);
    for (std::size_t i = 0; i < take; ++i) write_record(ready_[ready_pos_ + i], out[have + i]);
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
