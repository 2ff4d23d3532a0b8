// Discrete-event simulation engine.
//
// The simulator uses a hybrid event model (DESIGN.md §3): protocol-level
// "macro" events (trace events, confirmation round trips, refresh timers)
// go through this queue, while per-hop message propagation is expanded
// inline by the propagation kernels and accounted directly in the
// BandwidthLedger. Ordering is the total order (time, seq) with a
// monotonically increasing sequence number as tie-breaker, which makes
// event ordering (and therefore every simulation) fully deterministic.
//
// Because only macro events are queued, real queues stay shallow (a few
// thousand pending events at paper scale, DESIGN.md §14), so the pending
// set is one binary heap driven by one thread.
//
// Callbacks are small-buffer EventCallbacks (event_callback.hpp) drawing
// oversized closures from the engine's SlabPool instead of
// std::function's per-event heap allocation.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/audit.hpp"
#include "sim/event_callback.hpp"
#include "sim/observe.hpp"
#include "sim/slab_pool.hpp"

namespace asap::sim {

/// Engine knobs. The default is the production configuration.
struct EngineTuning {
  /// Test hook: pad every closure past EventCallback::kInlineSize so the
  /// SlabPool fallback path runs for all events.
  bool force_heap_callbacks = false;
};

class Engine {
 public:
  Engine() : Engine(EngineTuning{}) {}
  explicit Engine(const EngineTuning& tuning) : tuning_(tuning) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time in seconds; inside a callback, the executing
  /// event's time.
  Seconds now() const { return now_; }

  /// Schedule `f` at absolute time `t` (must be finite and not in the
  /// past). Accepts any void() callable; captures up to
  /// EventCallback::kInlineSize bytes are stored allocation-free.
  template <typename F>
  void schedule_at(Seconds t, F&& f) {
    if (tuning_.force_heap_callbacks) {
      push(t, EventCallback(pool_, Padded<std::decay_t<F>>(
                                       std::forward<F>(f))));
    } else {
      push(t, EventCallback(pool_, std::forward<F>(f)));
    }
  }

  /// Schedule `f` `dt` seconds from now (dt >= 0).
  template <typename F>
  void schedule_in(Seconds dt, F&& f) {
    schedule_at(now_ + dt, std::forward<F>(f));
  }

  /// Pop and execute the earliest event. Returns false if none remain.
  bool step();

  /// Run until the queue drains or virtual time would exceed `t_end`
  /// (events after t_end stay queued).
  void run_until(Seconds t_end);

  /// Run until the queue drains completely.
  void run();

  std::size_t pending() const { return queue_.size(); }
  std::uint64_t executed() const { return executed_; }

  /// FNV-1a over every executed event's (time, seq); always maintained, so
  /// two identically-seeded runs can be compared bit-for-bit.
  std::uint64_t digest() const { return digest_.value(); }

  /// Installs an invariant auditor (nullptr disables). Not owned.
  void set_auditor(SimAuditor* auditor) { auditor_ = auditor; }

  /// Installs a passive observer (nullptr disables). Not owned. Observers
  /// see every executed event but must never feed back into the run
  /// (sim/observe.hpp); the digest is identical either way.
  void set_observer(Observer* observer) { observer_ = observer; }

 private:
  struct Item {
    Seconds time;
    std::uint64_t seq;  ///< schedule counter: unique per run
    EventCallback cb;
  };
  static_assert(sizeof(Item) == 64,
                "queue Item should be exactly one cache line");

  /// Heap order for std::push_heap/pop_heap: the earliest (time, seq)
  /// sits at the front.
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// force_heap_callbacks wrapper: same behavior, guaranteed pool storage.
  template <typename Fn>
  struct Padded {
    explicit Padded(Fn f) : fn(std::move(f)) {}
    void operator()() { fn(); }
    Fn fn;
    unsigned char pad[EventCallback::kInlineSize + 1] = {};
  };

  void push(Seconds t, EventCallback cb);

  SlabPool pool_;  // first member: must outlive every queued EventCallback
  EngineTuning tuning_;
  std::vector<Item> queue_;  ///< binary min-heap on (time, seq)
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  Fnv64 digest_;
  SimAuditor* auditor_ = nullptr;
  Observer* observer_ = nullptr;
};

}  // namespace asap::sim
