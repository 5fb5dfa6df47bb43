#include "flowrank/flowtable/hash_batch.hpp"

#include <cstddef>

namespace flowrank::flowtable {

namespace {

// SplitMix multipliers, identical to packet::FlowKeyHash.
constexpr std::uint64_t kMix1 = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kMix2 = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kMix3 = 0x94d049bb133111ebULL;

}  // namespace

void hash_batch(std::span<const packet::FlowKey> keys,
                std::span<std::uint64_t> out) noexcept {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::uint64_t z = keys[i].hi ^ (keys[i].lo * kMix1);
    z = (z ^ (z >> 30)) * kMix2;
    z = (z ^ (z >> 27)) * kMix3;
    out[i] = z ^ (z >> 31);
  }
}

void hash_batch_table_ready(std::span<const packet::FlowKey> keys,
                            std::span<std::uint64_t> out) noexcept {
  hash_batch(keys, out);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out[i] = table_ready_hash(out[i]);
  }
}

}  // namespace flowrank::flowtable
