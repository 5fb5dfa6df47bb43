// Flow-level → packet-level trace expansion.
//
// Exactly the paper's regeneration procedure (Sec. 8.1): "For a flow of
// size S, duration D and starting time T ... we distribute these packets
// uniformly in the interval [T, T+D]". Packets across flows are merged in
// time order through a calendar queue over the live flows, so a 30-minute
// trace streams in O(live flows) memory instead of materializing tens of
// millions of packets.
//
// Placement (stream v2). A flow of n packets, duration D and start T is
// keyed by key = util::mix_streams(trace seed, stream seed, flow index).
// If n = 1 or D <= 0 every packet sits at T_ns = llround(T · 1e9).
// Otherwise, with U_j = util::unit_open_from_bits(util::counter_word(key,
// j)) and E_j = -log(U_j) for j = 0..n, packet k (k = 0..n-1) sits at
//   T_ns + floor(min(P_k · (D_ns / S), D_ns) + 0.5),   D_ns = D · 1e9,
// where P_k = E_0 + ... + E_k is summed in index order and
// S = -log(U_0 ⋯ U_n) is taken from a running product that is rescaled
// by 2^512 whenever it drops below 2^-512 (S = r · L - log(m) for r
// rescales, final product m and L = 512 times the double nearest ln 2),
// each operation in double
// precision and in that order. S equals E_0 + ... + E_n up to rounding,
// so P_k / S for k < n are the order statistics of n i.i.d. U(0, 1) draws
// (normalized exponential spacings): the paper's uniform placement,
// generated already sorted one packet at a time (Bentley & Saxe,
// "Generating sorted lists of random numbers", 1980). Each live flow
// keeps O(1) state: S costs one multiply per packet at activation, then
// E_k is regenerated from the counter as packet k comes due. Timestamps
// ascend within a flow (the prefixes ascend and every later step is
// monotone) and lie in [T_ns, T_ns + floor(D · 1e9 + 0.5)].
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
  /// One packet of the bucket being emitted. `key` packs (timestamp offset
  /// in the bucket << 32 | flow index); a stable sort on it keeps each
  /// flow's packets in cursor order, so the emission order is (timestamp,
  /// flow index, packet index).
  struct Pending {
    std::uint64_t key;
    std::uint32_t packet_index;
    std::uint32_t slot;  ///< the flow's LiveFlow, live until ready_ is spent
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// A flow with packets left to emit: O(1) state, whatever its size, in
  /// one cache line. Slots are recycled, so the stream holds one per live
  /// flow, not one per trace flow.
  struct alignas(64) LiveFlow {
    std::int64_t next_ns = 0;   ///< timestamp of packet `cursor`
    std::int64_t start_ns = 0;
    double duration_ns = 0.0;   ///< 0 for a point flow: every packet at start
    double prefix = 0.0;        ///< P_cursor
    double scale = 0.0;         ///< D_ns / S
    std::uint64_t key = 0;      ///< counter key of the placement stream
    std::uint32_t cursor = 0;   ///< next packet; == packets once free
    std::uint32_t packets = 0;
    std::uint32_t flow_index = 0;
    std::uint32_t next_filed = kNoSlot;  ///< next slot in the same calendar bucket
  };

  [[nodiscard]] bool fill_ready();
  void activate_through(std::int64_t bucket);
  void drain(std::int64_t bucket);
  void file(std::uint32_t slot);
  [[nodiscard]] std::int64_t next_live_bucket() const;
  [[nodiscard]] std::int64_t start_bucket(std::size_t flow) const;
  void place_first(std::uint32_t flow_index, LiveFlow& flow) const;
  /// Writes the packet in place: a record built by value and then copied
  /// goes through the stack in pieces, which stalls store forwarding.
  void write_record(const Pending& pending, packet::PacketRecord& pkt) const;

  std::shared_ptr<const FlowTrace> owned_;  ///< null for the reference ctor
  const FlowTrace& trace_;
  std::uint64_t seed_;
  std::size_t next_flow_ = 0;  ///< next trace flow not yet activated
  std::int64_t next_start_bucket_ = 0;  ///< its start bucket; max once none is left
  std::int64_t bucket_ = 0;    ///< next calendar bucket to drain
  std::vector<LiveFlow> slots_;
  std::vector<packet::FiveTuple> tuples_;  ///< per slot: its flow's tuple
  std::vector<std::uint32_t> free_slots_;  ///< all of slots_ when none is live
  /// Ring of buckets; a live flow is filed under the bucket of its next
  /// packet (ring position = bucket mod ring size). Each holds the first
  /// slot of a list threaded through LiveFlow::next_filed, so filing a flow
  /// touches only its own slot and this small array.
  std::vector<std::uint32_t> calendar_;
  std::vector<Pending> ready_;  ///< the drained bucket's packets, sorted
  std::vector<Pending> sort_scratch_;  ///< the counting passes' second buffer
  std::int64_t ready_base_ns_ = 0;     ///< first nanosecond of ready_'s bucket
  std::size_t ready_pos_ = 0;   ///< next ready_ packet to emit
  std::uint64_t emitted_ = 0;
};

/// Convenience: expands the whole trace into a vector (small traces only).
[[nodiscard]] std::vector<packet::PacketRecord> expand_trace(const FlowTrace& trace,
                                                             std::uint64_t seed = 0);

}  // namespace flowrank::trace
