#include "flowrank/sampler/packet_sampler.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "flowrank/util/binomial_sample.hpp"

namespace flowrank::sampler {

namespace {
/// Countdown value meaning "never select" (p == 0).
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
}  // namespace

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

void BernoulliSampler::select_into(std::span<const packet::PacketRecord> batch,
                                   std::vector<packet::PacketRecord>& selected) {
  scratch_indices_.clear();
  select(batch, scratch_indices_);
  selected.clear();
  for (const std::uint32_t i : scratch_indices_) selected.push_back(batch[i]);
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
