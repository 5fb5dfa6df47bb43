#include "flowrank/trace/bin_counts.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "flowrank/util/binomial_sample.hpp"
#include "flowrank/util/error.hpp"

namespace flowrank::trace {

namespace {
// Separates the bin split's streams from PacketStream's placement streams,
// which are keyed by the same (trace seed, seed, flow index) triple.
constexpr std::uint64_t kBinSplitDomain = 0x81AC0000ULL;

/// Most digit bits of the bucket pass: 4096 buckets.
constexpr int kMaxDigitBits = 12;
/// Buckets up to this size are insertion-sorted; larger ones (keys
/// crowding one digit) go to std::sort, so no input turns quadratic.
constexpr std::size_t kInsertionSortMax = 32;

/// Bits [shift, shift + 64) of the 128-bit number hi:lo.
std::uint64_t key_bits(const packet::FlowKey& key, int shift) {
  if (shift >= 64) return key.hi >> (shift - 64);
  if (shift == 0) return key.lo;
  return (key.hi << (64 - shift)) | (key.lo >> shift);
}

bool key_less(const BinFlowCount& a, const BinFlowCount& b) { return a.key < b.key; }

/// Sorts a bin by key: one counting pass on the top bits that vary across
/// the bin, then insertion sort inside each bucket. Every key shares the
/// bits above the digit, so the digit orders keys as the full key does,
/// and the buckets come out in key order. Equal keys may land in any
/// order, which is harmless: they are merged by integer sums.
void sort_by_key(std::vector<BinFlowCount>& bin, std::vector<BinFlowCount>& scratch,
                 std::vector<std::uint32_t>& starts) {
  const std::size_t n = bin.size();
  if (n <= kInsertionSortMax) {
    std::sort(bin.begin(), bin.end(), key_less);
    return;
  }
  std::uint64_t vary_hi = 0;
  std::uint64_t vary_lo = 0;
  for (const BinFlowCount& entry : bin) {
    vary_hi |= entry.key.hi ^ bin[0].key.hi;
    vary_lo |= entry.key.lo ^ bin[0].key.lo;
  }
  // Highest varying bit + 1, counting hi:lo as one 128-bit number.
  const int width = static_cast<int>(vary_hi != 0 ? 64 + std::bit_width(vary_hi)
                                                   : std::bit_width(vary_lo));
  if (width == 0) return;  // one key throughout
  // About one entry per bucket, up to the cap.
  const int digit_bits =
      std::min({kMaxDigitBits, width, static_cast<int>(std::bit_width(n)) - 1});
  const int shift = width - digit_bits;
  const std::uint64_t mask = (std::uint64_t{1} << digit_bits) - 1;
  const std::size_t buckets = std::size_t{1} << digit_bits;

  starts.assign(buckets + 1, 0);
  for (const BinFlowCount& entry : bin) ++starts[(key_bits(entry.key, shift) & mask) + 1];
  for (std::size_t d = 1; d <= buckets; ++d) starts[d] += starts[d - 1];
  scratch.resize(n);
  for (const BinFlowCount& entry : bin) {
    scratch[starts[key_bits(entry.key, shift) & mask]++] = entry;
  }
  // starts[d] now ends bucket d, which begins where bucket d - 1 ended.
  std::uint32_t begin = 0;
  for (std::size_t d = 0; d < buckets; ++d) {
    const std::uint32_t end = starts[d];
    if (end - begin > kInsertionSortMax) {
      std::sort(scratch.begin() + begin, scratch.begin() + end, key_less);
    } else {
      for (std::uint32_t i = begin + 1; i < end; ++i) {
        const BinFlowCount entry = scratch[i];
        std::uint32_t j = i;
        for (; j > begin && entry.key < scratch[j - 1].key; --j) scratch[j] = scratch[j - 1];
        scratch[j] = entry;
      }
    }
    begin = end;
  }
  bin.swap(scratch);
}
}  // namespace

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

  // Every (key, packets) contribution is appended to its bin; a bin is
  // sorted by key and equal keys merged at the end, which is where /24
  // aggregation folds many flow records into one entry.
  for (std::size_t fi = 0; fi < trace.flows.size(); ++fi) {
    const auto& flow = trace.flows[fi];
    // A NaN or negative start has no bin, and casting it to a bin index
    // is undefined: reject the record rather than lose its packets.
    if (!std::isfinite(flow.start_s) || !std::isfinite(flow.duration_s) ||
        flow.start_s < 0.0) {
      throw Error(ErrorCategory::kCorruptInput, "bin_counts",
                  "flow " + std::to_string(fi) +
                      " has a non-finite or negative start_s or a non-finite duration_s");
    }
    const packet::FlowKey key = packet::make_flow_key(flow.tuple, def);

    const double start = flow.start_s;
    // Compared as a double, so a start far past the trace is skipped
    // before any cast could overflow.
    if (start / bin_seconds >= static_cast<double>(bin_count)) continue;
    const auto first_bin = static_cast<std::size_t>(start / bin_seconds);
    const double end = std::min(flow.end_s(), trace.config.duration_s);
    const std::size_t last_bin =
        flow.duration_s <= 0.0
            ? first_bin
            : std::min(static_cast<std::size_t>(end / bin_seconds), bin_count - 1);

    if (first_bin == last_bin || flow.packets == 1) {
      out.bins[first_bin].push_back(BinFlowCount{key, flow.packets});
      continue;
    }

    // Only the multi-bin split draws: a counter-based stream keyed by
    // (trace seed, placement seed, flow index) in the split's own domain,
    // so nothing is seeded per flow.
    util::CounterEngine engine(util::mix_stream(
        util::mix_streams(trace.config.seed, placement_seed, fi), kBinSplitDomain));

    // Multinomial split across overlapped bins via sequential binomial
    // conditionals: P(bin b gets k of the remaining m) with probability
    // equal to overlap(b) / remaining_length. The length is the flow's
    // own, not its in-trace part: a flow that runs past the trace end
    // spreads its packets over all of [T, T+D] as PacketStream does, and
    // the last bin takes the share past the end, as the packet path's
    // clamp does.
    std::uint64_t remaining = flow.packets;
    double remaining_len = flow.end_s() - start;
    for (std::size_t b = first_bin; b <= last_bin && remaining > 0; ++b) {
      if (b == last_bin) {
        out.bins[b].push_back(BinFlowCount{key, remaining});
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
      const std::uint64_t here = util::binomial_sample(remaining, prob, engine);
      if (here > 0) out.bins[b].push_back(BinFlowCount{key, here});
      remaining -= here;
      remaining_len -= overlap;
    }
  }

  std::vector<BinFlowCount> scratch;
  std::vector<std::uint32_t> starts;
  for (auto& bin : out.bins) {
    // Deterministic order for reproducible downstream tie-breaks.
    sort_by_key(bin, scratch, starts);
    std::size_t kept = 0;
    for (const BinFlowCount& entry : bin) {
      if (kept > 0 && bin[kept - 1].key == entry.key) {
        bin[kept - 1].packets += entry.packets;
      } else {
        bin[kept++] = entry;
      }
    }
    bin.resize(kept);
  }
  return out;
}

}  // namespace flowrank::trace
