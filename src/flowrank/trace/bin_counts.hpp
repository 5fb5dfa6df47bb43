// Per-(flow, bin) packet counts: the fast simulation path.
//
// The binning method (Sec. 8) cuts the trace into measurement intervals
// and ranks flows within each. Under uniform packet placement, the packet
// count a flow contributes to each bin it overlaps is multinomial with
// probabilities proportional to the overlap; and Bernoulli packet sampling
// of those packets is binomial thinning of the counts. Nothing the ranking
// metrics see depends on anything finer than these counts, so the 30-run
// sweeps of Figs. 12-16 run on counts directly — distribution-identical to
// per-packet simulation but orders of magnitude faster.
#pragma once

#include <cstdint>
#include <vector>

#include "flowrank/packet/flow_key.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/util/rng.hpp"

namespace flowrank::trace {

/// Measurement-interval length in nanoseconds. Rounded, not truncated:
/// truncation turns e.g. 0.3 s into 299 999 999 ns, which makes the
/// packet path's integer bin edges drift one nanosecond per bin away from
/// the double-division edges used by bin_flow_counts. Every consumer that
/// bins integer timestamps must derive bin_ns through this helper.
[[nodiscard]] std::int64_t bin_length_ns(double bin_seconds);

/// Number of measurement intervals covering a trace of `duration_s`
/// seconds cut into `bin_seconds` bins (the final bin may be partial).
/// The single definition shared by the count path and the packet path, so
/// the two always agree on how many bins a trace has.
[[nodiscard]] std::size_t bin_count(double duration_s, double bin_seconds);

/// Packet count of one flow inside one bin.
struct BinFlowCount {
  packet::FlowKey key;        ///< flow identity at the chosen aggregation
  std::uint64_t packets = 0;  ///< unsampled packets in this bin
};

/// All flows' counts for each bin of the trace.
struct BinnedCounts {
  double bin_seconds = 0.0;
  /// bins[b] lists flows with >= 1 packet in bin b. A flow aggregated at
  /// /24 level may appear once per bin with merged counts.
  std::vector<std::vector<BinFlowCount>> bins;
};

/// Computes per-bin counts for the given flow definition.
///
/// Placement is multinomial over overlap fractions (exactly the law induced
/// by the paper's uniform packet placement), deterministic in
/// (trace.config.seed, placement_seed). A flow that runs past the trace
/// end keeps its whole length; the last bin takes the packets placed past
/// the end, as the packet path's clamp does.
[[nodiscard]] BinnedCounts bin_flow_counts(const FlowTrace& trace,
                                           double bin_seconds,
                                           packet::FlowDefinition def,
                                           std::uint64_t placement_seed = 0);

}  // namespace flowrank::trace
