// FlatMap / FlatSet property tests: under random insert / erase / overwrite
// sequences the open-addressing map must agree with a std::unordered_map
// oracle at every step — including after backward-shift deletions, which
// are the easy-to-get-wrong half of linear probing.
#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace asap {
namespace {

TEST(FlatMap, EmptyMapCostsOnlyTheHeader) {
  FlatMap<NodeId, std::uint32_t> m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.memory_bytes(), 0u);
  EXPECT_EQ(m.find(7u), nullptr);
  EXPECT_FALSE(m.erase(7u));
  EXPECT_LE(sizeof(m), 16u);
}

TEST(FlatMap, InsertFindOverwrite) {
  FlatMap<std::uint64_t, std::uint32_t> m;
  EXPECT_TRUE(m.emplace(10, 1));
  EXPECT_FALSE(m.emplace(10, 2));  // already present: value untouched
  ASSERT_NE(m.find(10), nullptr);
  EXPECT_EQ(*m.find(10), 1u);
  m[10] = 5;
  EXPECT_EQ(*m.find(10), 5u);
  m[11] = 7;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(10));
  EXPECT_FALSE(m.erase(10));
  EXPECT_EQ(m.find(10), nullptr);
  EXPECT_EQ(*m.find(11), 7u);
}

TEST(FlatMap, AgreesWithUnorderedMapOracleUnderRandomOps) {
  FlatMap<NodeId, std::uint64_t> m;
  std::unordered_map<NodeId, std::uint64_t> oracle;
  Rng rng(2024);
  // Small key space keeps collision chains long, and erase() constantly
  // punches holes into them: the strongest workout for backward-shift.
  constexpr std::uint64_t kKeys = 257;
  for (int step = 0; step < 60'000; ++step) {
    const auto key = static_cast<NodeId>(rng.below(kKeys));
    switch (rng.below(4)) {
      case 0:
      case 1: {  // insert / overwrite
        const std::uint64_t val = rng.next_u64();
        m[key] = val;
        oracle[key] = val;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(m.erase(key), oracle.erase(key) > 0);
        break;
      }
      default: {  // lookup
        const auto* p = m.find(key);
        const auto it = oracle.find(key);
        if (it == oracle.end()) {
          EXPECT_EQ(p, nullptr);
        } else {
          ASSERT_NE(p, nullptr);
          EXPECT_EQ(*p, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), oracle.size());
  }
  // Full sweep at the end: every oracle entry, and nothing else.
  std::size_t seen = 0;
  m.for_each([&](NodeId k, std::uint64_t v) {
    ++seen;
    const auto it = oracle.find(k);
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(seen, oracle.size());
}

TEST(FlatMap, CopyAndMovePreserveContents) {
  FlatMap<std::uint32_t, std::uint32_t> m;
  for (std::uint32_t k = 0; k < 100; ++k) m[k] = k * 3;
  FlatMap<std::uint32_t, std::uint32_t> copy(m);
  EXPECT_EQ(copy.size(), 100u);
  for (std::uint32_t k = 0; k < 100; ++k) EXPECT_EQ(*copy.find(k), k * 3);
  m[5] = 999;
  EXPECT_EQ(*copy.find(5), 15u);  // deep copy, not aliased

  FlatMap<std::uint32_t, std::uint32_t> moved(std::move(copy));
  EXPECT_EQ(moved.size(), 100u);
  EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move)
  for (std::uint32_t k = 0; k < 100; ++k) EXPECT_EQ(*moved.find(k), k * 3);

  FlatMap<std::uint32_t, std::uint32_t> assigned;
  assigned[1] = 1;
  assigned = moved;
  EXPECT_EQ(assigned.size(), 100u);
  EXPECT_EQ(*assigned.find(99), 297u);
}

TEST(FlatMap, ClearReleasesTheSlab) {
  // clear() returns the map to its 16-byte empty state — a cleared
  // per-node map must cost nothing again, same as a fresh one.
  FlatMap<std::uint32_t, std::uint32_t> m;
  for (std::uint32_t k = 0; k < 64; ++k) m[k] = k;
  EXPECT_GT(m.memory_bytes(), 0u);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.memory_bytes(), 0u);
  EXPECT_EQ(m.find(3u), nullptr);
  m[3] = 9;
  EXPECT_EQ(*m.find(3u), 9u);
}

TEST(FlatMap, RejectsTheReservedEmptyKey) {
  // ~Key{0} marks empty slots, so it can never be stored. The check is an
  // ASAP_CHECK, not a DCHECK: it throws in Release builds too.
  static_assert(FlatMap<NodeId, std::uint32_t>::kEmptyKey == kInvalidNode);
  FlatMap<NodeId, std::uint32_t> m;
  EXPECT_THROW(m.emplace(kInvalidNode, 1), InvariantError);
  EXPECT_THROW(m[kInvalidNode], InvariantError);
  EXPECT_EQ(m.size(), 0u);
  m[kInvalidNode - 1] = 2;  // the largest storable key
  EXPECT_EQ(*m.find(kInvalidNode - 1), 2u);
  EXPECT_EQ(m.find(kInvalidNode), nullptr);
  EXPECT_FALSE(m.erase(kInvalidNode));
  EXPECT_THROW(m.emplace(kInvalidNode, 3), InvariantError);
  EXPECT_EQ(m.size(), 1u);

  FlatSet<std::uint64_t> s;
  EXPECT_THROW(s.insert(~std::uint64_t{0}), InvariantError);
  EXPECT_TRUE(s.insert(0));  // zero is an ordinary key
  EXPECT_FALSE(s.contains(~std::uint64_t{0}));
}

TEST(FlatSet, AgreesWithUnorderedSetOracle) {
  FlatSet<std::uint64_t> s;
  std::unordered_set<std::uint64_t> oracle;
  Rng rng(7);
  for (int step = 0; step < 30'000; ++step) {
    const std::uint64_t key = rng.below(401);
    if (rng.below(3) == 0) {
      EXPECT_EQ(s.erase(key), oracle.erase(key) > 0);
    } else {
      EXPECT_EQ(s.insert(key), oracle.insert(key).second);
    }
    ASSERT_EQ(s.size(), oracle.size());
    const std::uint64_t probe = rng.below(401);
    EXPECT_EQ(s.contains(probe), oracle.count(probe) > 0);
  }
}

}  // namespace
}  // namespace asap
