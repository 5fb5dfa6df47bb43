#include "flowrank/trace/bin_counts.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "flowrank/util/binomial_sample.hpp"

namespace flowrank::trace {

std::int64_t bin_length_ns(double bin_seconds) {
  if (!(bin_seconds > 0.0)) {
    throw std::invalid_argument("bin_length_ns: bin_seconds must be > 0");
  }
  return std::llround(bin_seconds * 1e9);
}

std::size_t bin_count(double duration_s, double bin_seconds) {
  if (!(bin_seconds > 0.0)) {
    throw std::invalid_argument("bin_count: bin_seconds must be > 0");
  }
  return static_cast<std::size_t>(std::ceil(duration_s / bin_seconds));
}

BinnedCounts bin_flow_counts(const FlowTrace& trace, double bin_seconds,
                             packet::FlowDefinition def,
                             std::uint64_t placement_seed) {
  const std::size_t bin_count = trace::bin_count(trace.config.duration_s, bin_seconds);
  BinnedCounts out;
  out.bin_seconds = bin_seconds;
  out.bins.resize(bin_count);

  // Aggregate per (bin, key); /24 aggregation may merge many flow records.
  std::vector<std::unordered_map<packet::FlowKey, std::uint64_t, packet::FlowKeyHash>>
      acc(bin_count);

  for (std::size_t fi = 0; fi < trace.flows.size(); ++fi) {
    const auto& flow = trace.flows[fi];
    const packet::FlowKey key = packet::make_flow_key(flow.tuple, def);

    const double start = flow.start_s;
    const double end = std::min(flow.end_s(), trace.config.duration_s);
    auto first_bin = static_cast<std::size_t>(start / bin_seconds);
    if (first_bin >= bin_count) continue;
    auto last_bin = static_cast<std::size_t>(end / bin_seconds);
    if (last_bin >= bin_count) last_bin = bin_count - 1;

    if (first_bin == last_bin || flow.duration_s <= 0.0 || flow.packets == 1) {
      acc[first_bin][key] += flow.packets;
      continue;
    }

    // Only the multi-bin split draws, so only it seeds an engine: a lazy
    // one, since the split takes one binomial per overlapped bin.
    auto engine = util::make_lazy_engine(
        trace.config.seed ^ (placement_seed * 0x9e3779b97f4a7c15ULL),
        0x81AC0000ULL + fi);

    // Multinomial split across overlapped bins via sequential binomial
    // conditionals: P(bin b gets k of the remaining m) with probability
    // equal to overlap(b) / remaining_length.
    std::uint64_t remaining = flow.packets;
    double remaining_len = end - start;
    for (std::size_t b = first_bin; b <= last_bin && remaining > 0; ++b) {
      if (b == last_bin) {
        acc[b][key] += remaining;
        remaining = 0;
        break;
      }
      const double bin_end = static_cast<double>(b + 1) * bin_seconds;
      const double overlap = bin_end - std::max(start, static_cast<double>(b) *
                                                           bin_seconds);
      const double prob = std::clamp(overlap / remaining_len, 0.0, 1.0);
      // util::binomial_sample, not std::binomial_distribution: the std
      // distribution's algorithm is implementation-defined, so the same
      // seed would place packets differently under libstdc++ and libc++.
      // Canonical-stream change (like the PR 3 BINV/BTPE switch): splits
      // differ draw-by-draw from the old libstdc++ stream, but every
      // consumer asserts conservation or distributional bands, not exact
      // split values.
      const std::uint64_t here = util::binomial_sample(remaining, prob, engine);
      if (here > 0) acc[b][key] += here;
      remaining -= here;
      remaining_len -= overlap;
    }
  }

  for (std::size_t b = 0; b < bin_count; ++b) {
    out.bins[b].reserve(acc[b].size());
    // unordered-ok: sorted by key immediately below before anything reads it
    for (const auto& [key, packets] : acc[b]) {
      out.bins[b].push_back(BinFlowCount{key, packets});
    }
    // Deterministic order for reproducible downstream tie-breaks.
    std::sort(out.bins[b].begin(), out.bins[b].end(),
              [](const BinFlowCount& a, const BinFlowCount& c) {
                return a.key < c.key;
              });
  }
  return out;
}

}  // namespace flowrank::trace
