// Allocation-free event callbacks (DESIGN.md §12).
//
// Every scheduled event used to carry a std::function<void()>: one heap
// allocation per event for any capture beyond ~16 bytes, plus an
// indirect call through the function's manager machinery. EventCallback
// replaces it with a small-buffer-optimized, move-only callable tuned for
// the event loop:
//
//   * closures up to kInlineSize bytes (the common case: a `this` pointer
//     and a node id or two) live inside the queue Item itself — zero
//     allocations, and executing an event touches exactly the cache lines
//     the queue already loaded;
//   * larger closures are placed in a block from the Engine's SlabPool
//     (slab_pool.hpp): a pointer pop on schedule, a pointer push on
//     completion, never the global allocator;
//   * one static ops table per closure type (invoke/destroy/relocate)
//     instead of std::function's type-erasure manager calls.
//
// The layout is chosen so sizeof(EventCallback) == 48 and an Engine queue
// Item (time + seq + callback) is exactly 64 bytes — one cache line.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "sim/slab_pool.hpp"

namespace asap::sim {

class EventCallback {
 public:
  /// Captures up to this many bytes are stored inline (no allocation).
  static constexpr std::size_t kInlineSize = 40;
  /// Inline storage is pointer-aligned; closures needing more alignment
  /// (rare — over-aligned SIMD members) take the pool path, whose blocks
  /// carry new-expression alignment.
  static constexpr std::size_t kInlineAlign = alignof(void*);

  EventCallback() noexcept : ops_(nullptr) {}

  /// Wraps `f`, drawing from `pool` only when the closure exceeds the
  /// inline buffer. `pool` must outlive the callback.
  template <typename F>
  EventCallback(SlabPool& pool, F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "event callbacks take no arguments and return void");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned closures are not supported");
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign) {
      ::new (static_cast<void*>(storage_.buf)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      void* block = pool.allocate(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(f));
      storage_.heap.obj = block;
      storage_.heap.pool = &pool;
      storage_.heap.bytes = sizeof(Fn);
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  void operator()() {
    ASAP_DCHECK(ops_ != nullptr);
    ops_->invoke(storage_);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True when the closure lives in the inline buffer (diagnostics/tests).
  bool inlined() const { return ops_ != nullptr && ops_->inline_storage; }

  /// Hints the prefetcher at an out-of-line closure's block. The engine
  /// issues this for the *next* event while the current one runs: a
  /// pool-backed closure scheduled long ago is guaranteed cold, and the
  /// running callback's work hides most of the miss latency.
  void prefetch() const {
    if (ops_ != nullptr && !ops_->inline_storage) {
      __builtin_prefetch(storage_.heap.obj);
    }
  }

 private:
  union Storage {
    /// Out-of-line closures: block pointer plus what deallocate() needs.
    struct {
      void* obj;
      SlabPool* pool;
      std::size_t bytes;
    } heap;
    alignas(kInlineAlign) std::byte buf[kInlineSize];
  };

  struct Ops {
    void (*invoke)(Storage& s);
    void (*destroy)(Storage& s);
    /// Move the closure from one Storage to another and leave the source
    /// destroyed (inline) or disowned (heap). nullptr marks a trivially
    /// relocatable closure: moving is a raw byte copy of the Storage.
    /// Queue Items relocate constantly (every heap sift moves some), and
    /// an indirect call per move is measurably slower than the inlined
    /// memcpy — std::function wins exactly there, since its move never
    /// calls the manager. Pool-backed closures are always
    /// trivial to relocate (ownership is three words).
    void (*relocate)(Storage& from, Storage& to);
    bool inline_storage;
  };

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Takes over `other`'s closure; ops_ must already equal other.ops_.
  void relocate_from(EventCallback& other) noexcept {
    if (ops_->relocate == nullptr) {
      std::memcpy(static_cast<void*>(&storage_), &other.storage_,
                  sizeof(Storage));
    } else {
      ops_->relocate(other.storage_, storage_);
    }
    other.ops_ = nullptr;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](Storage& s) { (*std::launder(reinterpret_cast<Fn*>(s.buf)))(); },
      [](Storage& s) { std::launder(reinterpret_cast<Fn*>(s.buf))->~Fn(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](Storage& from, Storage& to) {
              Fn* src = std::launder(reinterpret_cast<Fn*>(from.buf));
              ::new (static_cast<void*>(to.buf)) Fn(std::move(*src));
              src->~Fn();
            },
      true,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](Storage& s) { (*static_cast<Fn*>(s.heap.obj))(); },
      [](Storage& s) {
        static_cast<Fn*>(s.heap.obj)->~Fn();
        s.heap.pool->deallocate(s.heap.obj, s.heap.bytes);
      },
      nullptr,  // the block stays put; ownership is a trivial byte copy
      false,
  };

  const Ops* ops_;
  Storage storage_;
};

static_assert(sizeof(EventCallback) == 48,
              "EventCallback layout drifted; queue Items are sized to be "
              "one cache line (see engine.hpp)");

}  // namespace asap::sim
