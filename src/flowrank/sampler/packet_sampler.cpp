#include "flowrank/sampler/packet_sampler.hpp"

#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>

#include "flowrank/flowtable/hash_batch.hpp"
#include "flowrank/util/binomial_sample.hpp"

namespace flowrank::sampler {

namespace {
/// Countdown value meaning "never select" (p == 0).
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

}  // namespace

void PacketSampler::select(std::span<const packet::PacketRecord> batch,
                           std::vector<std::uint32_t>& out_indices) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (offer(batch[i])) out_indices.push_back(static_cast<std::uint32_t>(i));
  }
}

void PacketSampler::select_into(std::span<const packet::PacketRecord> batch,
                                std::vector<packet::PacketRecord>& selected) {
  scratch_indices_.clear();
  select(batch, scratch_indices_);
  selected.clear();
  for (const std::uint32_t i : scratch_indices_) selected.push_back(batch[i]);
}

BernoulliSampler::BernoulliSampler(double p, std::uint64_t seed)
    : p_(p), engine_(util::make_engine(seed, 0xBE44u)) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("BernoulliSampler: p in [0,1]");
  }
  if (p_ > 0.0 && p_ < 1.0) inv_log_q_ = 1.0 / std::log1p(-p_);
  countdown_ = draw_gap();
}

std::uint64_t BernoulliSampler::draw_gap() {
  if (p_ >= 1.0) return 0;
  if (p_ <= 0.0) return kNever;
  // Geometric(p) via inversion: floor(log(U) / log(1-p)), U in (0,1].
  const double gap = std::floor(std::log(util::uniform_unit_open(engine_)) * inv_log_q_);
  if (gap >= 9.2e18) return kNever - 1;  // beyond any realistic trace
  return static_cast<std::uint64_t>(gap);
}

bool BernoulliSampler::offer(const packet::PacketRecord&) {
  if (countdown_ == 0) {
    countdown_ = draw_gap();
    return true;
  }
  --countdown_;
  return false;
}

void BernoulliSampler::select(std::span<const packet::PacketRecord> batch,
                              std::vector<std::uint32_t>& out_indices) {
  const std::uint64_t n = batch.size();
  std::uint64_t i = 0;
  while (countdown_ < n - i) {
    i += countdown_;
    out_indices.push_back(static_cast<std::uint32_t>(i));
    countdown_ = draw_gap();
    ++i;
  }
  countdown_ -= n - i;
}

void BernoulliSampler::reset() { countdown_ = draw_gap(); }

std::string BernoulliSampler::name() const {
  std::ostringstream os;
  os << "bernoulli(p=" << p_ << ")";
  return os.str();
}

PeriodicSampler::PeriodicSampler(std::uint64_t period, std::uint64_t phase)
    : period_(period), phase_(phase) {
  if (period < 1) throw std::invalid_argument("PeriodicSampler: period >= 1");
  if (phase >= period) throw std::invalid_argument("PeriodicSampler: phase < period");
}

bool PeriodicSampler::offer(const packet::PacketRecord&) {
  const bool selected = counter_ % period_ == phase_;
  ++counter_;
  return selected;
}

void PeriodicSampler::select(std::span<const packet::PacketRecord> batch,
                             std::vector<std::uint32_t>& out_indices) {
  const std::uint64_t n = batch.size();
  // Offset within the batch of the first selected packet.
  const std::uint64_t pos = counter_ % period_;
  std::uint64_t i = pos <= phase_ ? phase_ - pos : period_ - pos + phase_;
  for (; i < n; i += period_) {
    out_indices.push_back(static_cast<std::uint32_t>(i));
  }
  counter_ += n;
}

std::string PeriodicSampler::name() const {
  std::ostringstream os;
  os << "periodic(1-in-" << period_ << ")";
  return os.str();
}

StratifiedSampler::StratifiedSampler(std::uint64_t period, std::uint64_t seed)
    : period_(period),
      engine_(util::make_engine(seed, 0x57A7u)),
      pick_dist_(0, period >= 1 ? period - 1 : 0) {
  if (period < 1) throw std::invalid_argument("StratifiedSampler: period >= 1");
  draw_pick();
}

void StratifiedSampler::draw_pick() { pick_ = pick_dist_(engine_); }

bool StratifiedSampler::offer(const packet::PacketRecord&) {
  const bool selected = position_ == pick_;
  ++position_;
  if (position_ == period_) {
    position_ = 0;
    draw_pick();
  }
  return selected;
}

void StratifiedSampler::select(std::span<const packet::PacketRecord> batch,
                               std::vector<std::uint32_t>& out_indices) {
  const std::uint64_t n = batch.size();
  std::uint64_t i = 0;
  while (i < n) {
    // The batch segment that falls inside the current group.
    const std::uint64_t take = std::min(period_ - position_, n - i);
    if (pick_ >= position_ && pick_ < position_ + take) {
      out_indices.push_back(static_cast<std::uint32_t>(i + (pick_ - position_)));
    }
    position_ += take;
    i += take;
    if (position_ == period_) {
      position_ = 0;
      draw_pick();
    }
  }
}

void StratifiedSampler::reset() {
  position_ = 0;
  draw_pick();
}

std::string StratifiedSampler::name() const {
  std::ostringstream os;
  os << "stratified(1-in-" << period_ << ")";
  return os.str();
}

FlowSampler::FlowSampler(double q, packet::FlowDefinition def, std::uint64_t seed)
    : q_(q), def_(def), salt_(util::derive_seed(seed, 0xF10Du)) {
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("FlowSampler: q in [0,1]");
  }
  // Map q onto the full 64-bit hash range. q=1 must select everything.
  threshold_ = q >= 1.0 ? ~0ULL
                        : static_cast<std::uint64_t>(
                              q * 18446744073709551615.0);  // 2^64 - 1
}

bool FlowSampler::selects(const packet::FlowKey& key) const noexcept {
  std::uint64_t z = key.hi ^ (key.lo * 0x9e3779b97f4a7c15ULL) ^ salt_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z <= threshold_;
}

bool FlowSampler::offer(const packet::PacketRecord& pkt) {
  return selects(packet::make_flow_key(pkt.tuple, def_));
}

void FlowSampler::select(std::span<const packet::PacketRecord> batch,
                         std::vector<std::uint32_t>& out_indices) {
  // Stateless hash-threshold test, no RNG at all. The salted hashes run
  // through the batch hash kernel — folding salt_ into the first mixing
  // step reproduces selects() bit for bit (tests/test_hash_batch.cpp),
  // so this path and offer() still agree exactly.
  const std::size_t n = batch.size();
  scratch_keys_.resize(n);
  scratch_hashes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch_keys_[i] = packet::make_flow_key(batch[i].tuple, def_);
  }
  flowtable::hash_batch(scratch_keys_, salt_, scratch_hashes_);
  for (std::size_t i = 0; i < n; ++i) {
    if (scratch_hashes_[i] <= threshold_) {
      out_indices.push_back(static_cast<std::uint32_t>(i));
    }
  }
}

std::string FlowSampler::name() const {
  std::ostringstream os;
  os << "flow-sampling(q=" << q_ << ", " << packet::to_string(def_) << ")";
  return os.str();
}

std::uint64_t thin_count(std::uint64_t count, double p, util::Engine& engine) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("thin_count: p in [0,1]");
  }
  // util::binomial_sample rather than std::binomial_distribution: no
  // per-call distribution construction, O(1) draws for large counts, and
  // a variate stream that is identical across standard libraries (the
  // std:: one is implementation-defined, which silently forked the
  // "deterministic" figure data between libstdc++ and libc++).
  return util::binomial_sample(count, p, engine);
}

}  // namespace flowrank::sampler
