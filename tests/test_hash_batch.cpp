// Tests for the batch hash kernel (flowtable::hash_batch): it must be
// bit-identical to the per-key FlowKeyHash, because the carried hash
// feeds shard selection and FlowTable probing — a single differing bit
// would silently fork the canonical results.
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "flowrank/flowtable/hash_batch.hpp"
#include "flowrank/packet/flow_key.hpp"
#include "flowrank/util/rng.hpp"

namespace ftab = flowrank::flowtable;
namespace fp = flowrank::packet;

namespace {

std::vector<fp::FlowKey> random_keys(std::size_t n, std::uint64_t seed) {
  auto engine = flowrank::util::make_engine(seed, 0x7E57u);
  std::uniform_int_distribution<std::uint64_t> rand64;
  std::vector<fp::FlowKey> keys(n);
  for (auto& key : keys) {
    key.hi = rand64(engine);
    key.lo = rand64(engine);
  }
  // Edge keys: all-zero (the table's empty sentinel collides here) and
  // all-ones.
  if (n >= 2) {
    keys[0] = fp::FlowKey{0, 0};
    keys[1] = fp::FlowKey{~0ULL, ~0ULL};
  }
  return keys;
}

}  // namespace

TEST(HashBatch, MatchesFlowKeyHashUnsalted) {
  const auto keys = random_keys(1001, 42);
  std::vector<std::uint64_t> out(keys.size());
  ftab::hash_batch(keys, out);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out[i], fp::FlowKeyHash{}(keys[i])) << "key " << i;
  }
}

TEST(HashBatch, TableReadyRemapsOnlyTheEmptySentinel) {
  static_assert(ftab::table_ready_hash(0) == 0x9e3779b97f4a7c15ULL);
  static_assert(ftab::table_ready_hash(1) == 1);
  static_assert(ftab::table_ready_hash(~0ULL) == ~0ULL);

  const auto keys = random_keys(256, 9);
  std::vector<std::uint64_t> raw(keys.size()), ready(keys.size());
  ftab::hash_batch(keys, raw);
  ftab::hash_batch_table_ready(keys, ready);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(ready[i], ftab::table_ready_hash(raw[i])) << "key " << i;
    EXPECT_NE(ready[i], 0u);  // never the kEmptyHash sentinel
  }
}

TEST(HashBatch, EmptyAndSingleElementSpans) {
  std::vector<fp::FlowKey> none;
  std::vector<std::uint64_t> out;
  ftab::hash_batch(none, out);  // must not touch memory
  const auto keys = random_keys(1, 3);
  std::vector<std::uint64_t> one(1);
  ftab::hash_batch(keys, one);
  EXPECT_EQ(one[0], fp::FlowKeyHash{}(keys[0]));
}
