// Slab/pool allocator for short-lived simulation objects.
//
// The event loop churns through millions of small, same-shaped blocks:
// oversized event closures (event_callback.hpp). Hitting the global
// allocator for each one costs a malloc/free pair per event — measured as
// the dominant term once the AdCache fast path landed (DESIGN.md §12). A
// SlabPool instead carves fixed-size blocks out
// of geometrically-growing slabs and recycles them through per-class
// free lists: allocate/deallocate are a pointer pop/push, no locks, no
// per-block headers.
//
// Size classes are powers of two from 64 B to 4 KiB; larger requests fall
// through to operator new (rare by construction — a closure that big is a
// design smell the bench would surface). The pool is intentionally
// single-threaded: one pool per Engine, matching the one-engine-per-trial
// execution model (matrix trials parallelize across engines, never within
// one — DESIGN.md §12).
//
// Memory is returned to the system only on destruction. Freed blocks are
// reused in LIFO order, which keeps the hot block set small and
// cache-resident under the steady-state schedule/execute cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/error.hpp"

namespace asap::sim {

class SlabPool {
 public:
  static constexpr std::size_t kMinBlock = 64;
  static constexpr std::size_t kMaxBlock = 4096;
  /// Blocks are aligned for any object with fundamental alignment.
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() = default;  // slabs_ releases everything; free lists die with it

  /// Allocates at least `n` bytes. Never returns nullptr (throws
  /// std::bad_alloc on exhaustion, like operator new).
  void* allocate(std::size_t n) {
    const std::size_t cls = size_class(n);
    if (cls >= kNumClasses) return ::operator new(n);  // oversize fallback
    FreeNode*& head = free_[cls];
    if (head == nullptr) refill(cls);
    FreeNode* node = head;
    head = node->next;
    ++live_;
    return node;
  }

  /// Returns a block obtained from allocate(n). `n` must be the size the
  /// block was requested with (the usual sized-deallocate contract).
  void deallocate(void* p, std::size_t n) {
    if (p == nullptr) return;
    const std::size_t cls = size_class(n);
    if (cls >= kNumClasses) {
      ::operator delete(p);
      return;
    }
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_[cls];
    free_[cls] = node;
    ASAP_DCHECK(live_ > 0);
    --live_;
  }

  /// Blocks currently handed out (pooled classes only; diagnostics).
  std::size_t live_blocks() const { return live_; }
  /// Total bytes reserved from the system across all slabs.
  std::size_t reserved_bytes() const { return reserved_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  // Classes: 64, 128, 256, 512, 1024, 2048, 4096.
  static constexpr std::size_t kNumClasses = 7;

  static constexpr std::size_t class_size(std::size_t cls) {
    return kMinBlock << cls;
  }

  /// Smallest class whose blocks hold `n` bytes; kNumClasses when none do.
  static constexpr std::size_t size_class(std::size_t n) {
    std::size_t cls = 0;
    std::size_t size = kMinBlock;
    while (size < n) {
      size <<= 1;
      ++cls;
    }
    return cls;
  }

  void refill(std::size_t cls);

  FreeNode* free_[kNumClasses] = {};
  /// Slabs grow geometrically per class: 16 blocks, 32, 64, ... capped so
  /// one refill never reserves more than 256 KiB.
  std::uint32_t next_slab_blocks_[kNumClasses] = {};
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::size_t live_ = 0;
  std::size_t reserved_ = 0;
};

}  // namespace asap::sim
