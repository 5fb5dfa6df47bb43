// Batch FlowKey hashing: the partition-at-source kernel.
//
// The scale-up ingest path computes each packet's 64-bit key hash
// exactly once, at the driver, and carries it with the record so shard
// selection and flow-table probing both reuse it (see
// docs/PERFORMANCE.md "Scale-up ingest"). hash_batch() is that one
// computation over a whole batch: the packet::FlowKeyHash SplitMix
// finalizer over two 64-bit words, as a plain scalar loop. Two-lane
// SSE2/NEON kernels measured 0.63x this loop (no native 64-bit lane
// multiply), so there is no vector path.
#pragma once

#include <cstdint>
#include <span>

#include "flowrank/packet/flow_key.hpp"

namespace flowrank::flowtable {

/// out[i] = packet::FlowKeyHash{}(keys[i]) bit-for-bit, for the whole
/// batch. Requires out.size() >= keys.size().
void hash_batch(std::span<const packet::FlowKey> keys,
                std::span<std::uint64_t> out) noexcept;

/// FlowTable's open-addressing slots reserve hash 0 as "empty", so a
/// key whose mix lands on 0 is remapped to an arbitrary odd constant.
/// Carried (precomputed) hashes must already be table-ready; this is
/// the single definition of that remap, shared with FlowTable.
[[nodiscard]] constexpr std::uint64_t table_ready_hash(std::uint64_t raw) noexcept {
  return raw == 0 ? 0x9e3779b97f4a7c15ULL : raw;
}

/// hash_batch followed by the table_ready_hash remap: the form the
/// ingest driver carries alongside each PacketRecord.
void hash_batch_table_ready(std::span<const packet::FlowKey> keys,
                            std::span<std::uint64_t> out) noexcept;

}  // namespace flowrank::flowtable
