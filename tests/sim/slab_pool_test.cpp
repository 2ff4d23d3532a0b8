// SlabPool: size classes, LIFO recycling and oversize fallback.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "sim/slab_pool.hpp"

namespace asap::sim {
namespace {

TEST(SlabPool, AllocateReturnsWritableDistinctBlocks) {
  SlabPool pool;
  std::set<void*> seen;
  std::vector<void*> blocks;
  for (int i = 0; i < 100; ++i) {
    void* p = pool.allocate(64);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate live block";
    std::memset(p, 0xAB, 64);
    blocks.push_back(p);
  }
  EXPECT_EQ(pool.live_blocks(), 100u);
  for (void* p : blocks) pool.deallocate(p, 64);
  EXPECT_EQ(pool.live_blocks(), 0u);
}

TEST(SlabPool, FreedBlocksAreRecycledLifo) {
  SlabPool pool;
  void* a = pool.allocate(100);
  pool.deallocate(a, 100);
  // Same size class (128 B) must hand the same block straight back.
  void* b = pool.allocate(80);
  EXPECT_EQ(a, b);
  pool.deallocate(b, 80);
}

TEST(SlabPool, SizeClassesAreIsolated) {
  SlabPool pool;
  void* small = pool.allocate(64);
  pool.deallocate(small, 64);
  // A larger class must not reuse the small block.
  void* big = pool.allocate(1024);
  EXPECT_NE(small, big);
  pool.deallocate(big, 1024);
}

TEST(SlabPool, OversizeRequestsFallBackToOperatorNew) {
  SlabPool pool;
  const std::size_t before = pool.reserved_bytes();
  void* p = pool.allocate(SlabPool::kMaxBlock + 1);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, SlabPool::kMaxBlock + 1);
  // Oversize goes to the global allocator: no slab reserved, not counted
  // as a live pooled block.
  EXPECT_EQ(pool.reserved_bytes(), before);
  EXPECT_EQ(pool.live_blocks(), 0u);
  pool.deallocate(p, SlabPool::kMaxBlock + 1);
}

TEST(SlabPool, SlabsGrowGeometricallyWithCappedReservation) {
  SlabPool pool;
  std::vector<void*> blocks;
  std::size_t last_reserved = 0;
  for (int i = 0; i < 20'000; ++i) {
    blocks.push_back(pool.allocate(64));
    const std::size_t reserved = pool.reserved_bytes();
    ASSERT_GE(reserved, last_reserved);
    // A single refill never reserves more than 256 KiB at once.
    ASSERT_LE(reserved - last_reserved, 256u << 10);
    last_reserved = reserved;
  }
  EXPECT_EQ(pool.live_blocks(), blocks.size());
  EXPECT_GE(pool.reserved_bytes(), blocks.size() * 64);
  for (void* p : blocks) pool.deallocate(p, 64);
}

}  // namespace
}  // namespace asap::sim
