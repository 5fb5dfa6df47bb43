// Packet sampling strategies.
//
// The paper's analysis assumes random (Bernoulli) sampling; periodic and
// stratified sampling are what routers actually ship ([4], [14]) and [10]
// shows they behave like random sampling on high-speed links — we provide
// all three so that claim can be tested here too.
//
// The hot entry point is select(): it classifies a whole batch of packets
// at once using skip-based arithmetic (draw the gap to the next sampled
// packet instead of one coin per packet), which is how line-rate monitors
// keep per-packet cost near zero. offer() remains as a per-packet
// compatibility shim over the same internal state machine, so the two
// paths select bit-identical packet sets for the same seed.
//
// BernoulliSampler is the one sampler of the packet path (the packet-level
// simulation, the continuous monitor, the fleet agents). Its skip stream
// is sequential, so it runs on the driver thread in front of the sharded
// ingest; at ~0.3 ns/pkt that costs under 1 % of an ingest pass.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "flowrank/packet/records.hpp"
#include "flowrank/util/rng.hpp"

namespace flowrank::sampler {

/// Decides which packets enter the sampled stream.
class PacketSampler {
 public:
  virtual ~PacketSampler() = default;

  /// Appends to `out_indices` the indices (into `batch`) of the selected
  /// packets, in increasing order. This is the batched hot path; the
  /// default implementation loops offer(), skip-based samplers override it.
  virtual void select(std::span<const packet::PacketRecord> batch,
                      std::vector<std::uint32_t>& out_indices);

  /// Convenience over select(): clears `selected` and refills it with
  /// copies of the selected packets, ready for FlowTable::add_batch.
  void select_into(std::span<const packet::PacketRecord> batch,
                   std::vector<packet::PacketRecord>& selected);

  /// Per-packet compatibility shim: returns true if this packet is
  /// selected. Equivalent to select() on a one-packet batch.
  [[nodiscard]] virtual bool offer(const packet::PacketRecord& pkt) = 0;

  /// Expected fraction of packets selected.
  [[nodiscard]] virtual double rate() const noexcept = 0;

  /// Resets internal state (period phase, skip countdown; the RNG is NOT
  /// reseeded).
  virtual void reset() = 0;

  [[nodiscard]] virtual std::string name() const = 0;

 private:
  std::vector<std::uint32_t> scratch_indices_;  ///< select_into() workspace
};

/// Random sampling: every packet selected independently with probability p.
///
/// Implemented with geometric skips: the gap until the next selected packet
/// is Geometric(p), so the RNG is touched once per *selected* packet
/// instead of once per packet — at p = 1% that is a 100x reduction in
/// random-number draws on the fast path.
class BernoulliSampler final : public PacketSampler {
 public:
  /// Throws std::invalid_argument unless 0 <= p <= 1.
  BernoulliSampler(double p, std::uint64_t seed);

  void select(std::span<const packet::PacketRecord> batch,
              std::vector<std::uint32_t>& out_indices) override;
  [[nodiscard]] bool offer(const packet::PacketRecord& pkt) override;
  [[nodiscard]] double rate() const noexcept override { return p_; }
  void reset() override;
  [[nodiscard]] std::string name() const override;

 private:
  /// Draws the number of packets skipped before the next selected one.
  [[nodiscard]] std::uint64_t draw_gap();

  double p_;
  double inv_log_q_ = 0.0;  ///< 1 / log(1-p), cached for the gap transform
  util::Engine engine_;
  std::uint64_t countdown_ = 0;  ///< packets to pass over before selecting
};

/// Periodic sampling: one packet every `period` packets (deterministic).
class PeriodicSampler final : public PacketSampler {
 public:
  /// Selects packet indices congruent to `phase` modulo `period`.
  /// Throws std::invalid_argument unless period >= 1 and phase < period.
  explicit PeriodicSampler(std::uint64_t period, std::uint64_t phase = 0);

  void select(std::span<const packet::PacketRecord> batch,
              std::vector<std::uint32_t>& out_indices) override;
  [[nodiscard]] bool offer(const packet::PacketRecord& pkt) override;
  [[nodiscard]] double rate() const noexcept override {
    return 1.0 / static_cast<double>(period_);
  }
  void reset() override { counter_ = 0; }
  [[nodiscard]] std::string name() const override;

 private:
  std::uint64_t period_;
  std::uint64_t phase_;
  std::uint64_t counter_ = 0;
};

/// Stratified sampling: exactly one uniformly-chosen packet out of every
/// consecutive group of `period` packets.
class StratifiedSampler final : public PacketSampler {
 public:
  /// Throws std::invalid_argument unless period >= 1.
  StratifiedSampler(std::uint64_t period, std::uint64_t seed);

  void select(std::span<const packet::PacketRecord> batch,
              std::vector<std::uint32_t>& out_indices) override;
  [[nodiscard]] bool offer(const packet::PacketRecord& pkt) override;
  [[nodiscard]] double rate() const noexcept override {
    return 1.0 / static_cast<double>(period_);
  }
  void reset() override;
  [[nodiscard]] std::string name() const override;

 private:
  void draw_pick();

  std::uint64_t period_;
  util::Engine engine_;
  std::uniform_int_distribution<std::uint64_t> pick_dist_;
  std::uint64_t position_ = 0;  // position within the current group
  std::uint64_t pick_ = 0;      // selected offset within the current group
};

/// Flow sampling ([8], [11]): a flow is either fully sampled or fully
/// dropped, decided by hashing its key — "if a flow is sampled, then all
/// packets belonging to that flow are sampled as well" (footnote 2).
class FlowSampler final : public PacketSampler {
 public:
  /// `q` is the per-flow selection probability; `def` the aggregation the
  /// decision applies to. Hash-based, so it needs no flow state.
  FlowSampler(double q, packet::FlowDefinition def, std::uint64_t seed);

  void select(std::span<const packet::PacketRecord> batch,
              std::vector<std::uint32_t>& out_indices) override;
  [[nodiscard]] bool offer(const packet::PacketRecord& pkt) override;
  [[nodiscard]] double rate() const noexcept override { return q_; }
  void reset() override {}
  [[nodiscard]] std::string name() const override;

  /// Key-level decision, usable without a packet.
  [[nodiscard]] bool selects(const packet::FlowKey& key) const noexcept;

 private:
  double q_;
  packet::FlowDefinition def_;
  std::uint64_t salt_;
  std::uint64_t threshold_;
  // select() batch workspace: keys + salted hashes for hash_batch.
  std::vector<packet::FlowKey> scratch_keys_;
  std::vector<std::uint64_t> scratch_hashes_;
};

/// Binomial thinning of a packet count: the count-level equivalent of
/// Bernoulli-sampling `count` packets at rate p. Backed by
/// util::binomial_sample, so the variate stream is the canonical portable
/// one (identical across standard libraries), not the
/// implementation-defined std::binomial_distribution stream.
[[nodiscard]] std::uint64_t thin_count(std::uint64_t count, double p,
                                       util::Engine& engine);

}  // namespace flowrank::sampler
