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
// set is one binary heap of plain std::function callbacks driven by one
// thread (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/audit.hpp"
#include "sim/observe.hpp"

namespace asap::sim {

/// Has no fields and changes nothing. It exists only because
/// perfbench/src/traced_run.cpp constructs `sim::EngineTuning{}` and the
/// benchmark sources must build unchanged; it goes with that call at the
/// next change to the benchmark.
struct EngineTuning {};

class Engine {
 public:
  Engine() = default;
  explicit Engine(const EngineTuning&) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time in seconds; inside a callback, the executing
  /// event's time.
  Seconds now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (must be finite and not in the
  /// past).
  void schedule_at(Seconds t, std::function<void()> cb);

  /// Schedule `cb` `dt` seconds from now (dt >= 0).
  void schedule_in(Seconds dt, std::function<void()> cb) {
    schedule_at(now_ + dt, std::move(cb));
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
    std::function<void()> cb;
  };

  /// Heap order for std::push_heap/pop_heap: the earliest (time, seq)
  /// sits at the front.
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Item> queue_;  ///< binary min-heap on (time, seq)
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  Fnv64 digest_;
  SimAuditor* auditor_ = nullptr;
  Observer* observer_ = nullptr;
};

}  // namespace asap::sim
