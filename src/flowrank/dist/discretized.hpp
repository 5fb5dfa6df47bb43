// Integer-packet adaptor over a continuous flow-size distribution.
//
// The discrete (exact) models evaluate binomial sums over integer flow
// sizes; Discretized maps a continuous law X to N = ceil(X), so
// P{N >= i} = P{X > i-1} telescopes exactly against the source ccdf.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "flowrank/dist/flow_size_distribution.hpp"

namespace flowrank::dist {

/// Packet-count distribution N = ceil(X) for a continuous source X.
class Discretized {
 public:
  /// Takes shared (or, via the implicit unique_ptr -> shared_ptr
  /// conversion, exclusive) ownership of the source — the experiment
  /// engine discretizes distributions it also hands to the continuous
  /// models. Throws std::invalid_argument on null.
  explicit Discretized(std::shared_ptr<const FlowSizeDistribution> source);

  /// Smallest packet count with positive mass: floor(min_size) + 1.
  [[nodiscard]] std::int64_t min_packets() const noexcept { return min_packets_; }

  /// P{N = i}.
  [[nodiscard]] double pmf(std::int64_t i) const;

  /// P{N >= i} (== source ccdf at i-1).
  [[nodiscard]] double ccdf_geq(std::int64_t i) const;

  /// pmf[k] = pmf(first + k) and ccdf[k] = ccdf_geq(first + k), bit for
  /// bit, with one source ccdf per size where the two calls make three.
  /// Throws std::invalid_argument unless the spans have the same size.
  void fill_rows(std::int64_t first, std::span<double> pmf, std::span<double> ccdf) const;

  /// E[N], computed once by summing ccdf_geq until the tail is negligible.
  [[nodiscard]] double mean() const;

  /// Draws one packet count (>= min_packets()).
  [[nodiscard]] std::int64_t sample(util::Engine& engine) const;

  [[nodiscard]] std::string name() const;

  [[nodiscard]] const FlowSizeDistribution& source() const noexcept {
    return *source_;
  }

 private:
  std::shared_ptr<const FlowSizeDistribution> source_;  ///< shared: cheap copies
  std::int64_t min_packets_ = 1;
  mutable double cached_mean_ = -1.0;  ///< lazy; < 0 means not yet computed
};

}  // namespace flowrank::dist
