// Packet sampling: random (Bernoulli) sampling, the scheme the paper
// analyses, plus count-level binomial thinning for the Monte-Carlo path.
//
// The hot entry point is select(): it classifies a whole batch of packets
// at once using skip-based arithmetic (draw the gap to the next sampled
// packet instead of one coin per packet), which is how line-rate monitors
// keep per-packet cost near zero. offer() remains as the per-packet
// reference over the same internal state machine, so the two paths select
// bit-identical packet sets for the same seed.
//
// BernoulliSampler is the one sampler of the packet path (the packet-level
// simulation, the continuous monitor, the fleet agents). Its skip stream
// is sequential, so it runs on the driver thread in front of the sharded
// ingest; at ~0.3 ns/pkt that costs under 1 % of an ingest pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flowrank/packet/records.hpp"
#include "flowrank/util/rng.hpp"

namespace flowrank::sampler {

/// Random sampling: every packet selected independently with probability p.
///
/// Implemented with geometric skips: the gap until the next selected packet
/// is Geometric(p), so the RNG is touched once per *selected* packet
/// instead of once per packet — at p = 1% that is a 100x reduction in
/// random-number draws on the fast path.
class BernoulliSampler {
 public:
  /// Throws std::invalid_argument unless 0 <= p <= 1.
  BernoulliSampler(double p, std::uint64_t seed);

  /// Appends to `out_indices` the indices (into `batch`) of the selected
  /// packets, in increasing order. This is the batched hot path.
  void select(std::span<const packet::PacketRecord> batch,
              std::vector<std::uint32_t>& out_indices);

  /// Convenience over select(): clears `selected` and refills it with
  /// copies of the selected packets, ready for FlowTable::add_batch.
  void select_into(std::span<const packet::PacketRecord> batch,
                   std::vector<packet::PacketRecord>& selected);

  /// Per-packet reference: returns true if this packet is selected.
  /// Equivalent to select() on a one-packet batch. Inline, so a
  /// per-packet loop pays one decrement per unselected packet, not a call.
  [[nodiscard]] bool offer(const packet::PacketRecord& /*pkt*/) {
    if (countdown_ == 0) {
      countdown_ = draw_gap();
      return true;
    }
    --countdown_;
    return false;
  }

  /// Expected fraction of packets selected.
  [[nodiscard]] double rate() const noexcept { return p_; }

 private:
  /// Draws the number of packets skipped before the next selected one.
  [[nodiscard]] std::uint64_t draw_gap();

  double p_;
  double inv_log_q_ = 0.0;  ///< 1 / log(1-p), cached for the gap transform
  util::Engine engine_;
  std::uint64_t countdown_ = 0;  ///< packets to pass over before selecting
  std::vector<std::uint32_t> scratch_indices_;  ///< select_into() workspace
};

/// Binomial thinning of a packet count: the count-level equivalent of
/// Bernoulli-sampling `count` packets at rate p. Backed by
/// util::binomial_sample, so the variate stream is the canonical portable
/// one (identical across standard libraries), not the
/// implementation-defined std::binomial_distribution stream.
[[nodiscard]] std::uint64_t thin_count(std::uint64_t count, double p,
                                       util::Engine& engine);

}  // namespace flowrank::sampler
