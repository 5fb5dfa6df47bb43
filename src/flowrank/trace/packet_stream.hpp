// Flow-level → packet-level trace expansion.
//
// Exactly the paper's regeneration procedure (Sec. 8.1): "For a flow of
// size S, duration D and starting time T ... we distribute these packets
// uniformly in the interval [T, T+D]". Packets across flows are merged in
// time order through a calendar queue over the live flows, so a 30-minute
// trace streams in O(live flows) memory instead of materializing tens of
// millions of packets.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "flowrank/packet/records.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/trace/trace_source.hpp"
#include "flowrank/util/rng.hpp"

namespace flowrank::trace {

/// Streams the packets of a flow trace in non-decreasing timestamp order.
///
/// The front-end of the trace layer: it accepts a caller-owned FlowTrace,
/// a shared one, or any TraceSource (synthetic, FRT1 file replay,
/// concatenated epochs) and expands flows to packets identically for all
/// of them — everything downstream is source-agnostic.
///
/// TCP flows carry synthetic sequence numbers (cumulative byte offsets), so
/// the TCP-seq size estimator (paper future-work #2) can be exercised.
class PacketStream {
 public:
  /// `trace` must outlive the stream and its flows must be sorted by
  /// start_s (flowrank::Error otherwise: the merge could not keep its
  /// timestamp order). Packet placement is deterministic in (trace seed,
  /// `seed`) so multiple sampling runs see the same packets.
  PacketStream(const FlowTrace& trace, std::uint64_t seed = 0);

  /// Owning variant: keeps the trace alive for the stream's lifetime.
  explicit PacketStream(std::shared_ptr<const FlowTrace> trace,
                        std::uint64_t seed = 0);

  /// Materializes `source` and owns the result. Packets are identical to
  /// streaming the same FlowTrace directly.
  explicit PacketStream(const TraceSource& source, std::uint64_t seed = 0);

  /// Returns the next packet, or nullopt at end of trace.
  [[nodiscard]] std::optional<packet::PacketRecord> next();

  /// Batched pull: clears `out` and refills it with up to `max_packets`
  /// packets in timestamp order. Returns the number delivered (0 at end of
  /// trace). Feeding the ingest pipeline in batches keeps the merge, the
  /// sampler and the flow table each working over a cache-resident chunk.
  std::size_t next_batch(std::vector<packet::PacketRecord>& out,
                         std::size_t max_packets);

  /// Packets emitted so far.
  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }

 private:
  /// One packet of the bucket being emitted. Emission order is this key:
  /// (timestamp, flow index, packet index).
  struct Pending {
    std::int64_t timestamp_ns;
    std::uint32_t flow_index;
    std::uint32_t packet_index;
  };
  /// A flow with packets left to emit. Slots are recycled, so the stream
  /// holds one per live flow, not one per trace flow.
  struct LiveFlow {
    std::vector<std::int64_t> timestamps;  ///< ascending placement
    std::uint32_t flow_index = 0;
    std::uint32_t cursor = 0;  ///< next packet; >= timestamps.size() once free
  };

  [[nodiscard]] bool fill_ready();
  void activate_through(std::int64_t bucket);
  void drain(std::int64_t bucket);
  void file(std::uint32_t slot);
  [[nodiscard]] std::int64_t next_live_bucket() const;
  void place_packets(std::uint32_t flow_index, std::vector<std::int64_t>& ts) const;
  [[nodiscard]] packet::PacketRecord record(const Pending& pending) const;

  std::shared_ptr<const FlowTrace> owned_;  ///< null for the reference ctor
  const FlowTrace& trace_;
  std::uint64_t seed_;
  std::size_t next_flow_ = 0;  ///< next trace flow not yet activated
  std::int64_t bucket_ = 0;    ///< next calendar bucket to drain
  std::vector<LiveFlow> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< all of slots_ when none is live
  /// Ring of buckets; a live flow is filed under the bucket of its next
  /// packet (ring position = bucket mod ring size).
  std::vector<std::vector<std::uint32_t>> calendar_;
  std::vector<std::uint32_t> draining_;  ///< the bucket being drained
  std::vector<Pending> ready_;  ///< the drained bucket's packets, sorted
  std::size_t ready_pos_ = 0;   ///< next ready_ packet to emit
  std::uint64_t emitted_ = 0;
};

/// Convenience: expands the whole trace into a vector (small traces only).
[[nodiscard]] std::vector<packet::PacketRecord> expand_trace(const FlowTrace& trace,
                                                             std::uint64_t seed = 0);

}  // namespace flowrank::trace
