// Property tests for sim::Engine against a reference model.
//
// The reference is a std::priority_queue over (time, seq) — the textbook
// definition of the engine's contract. A mirrored sequence counter tracks
// the engine's internal one (both advance once per schedule call), so the
// model predicts not just time ordering but the exact FIFO tie-break, and
// random interleavings of schedule/pop — including events scheduled from
// inside running callbacks — must execute in exactly the model's order.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace asap::sim {
namespace {

struct RefEvent {
  Seconds time;
  std::uint64_t seq;
  int id;
};

struct LaterThan {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;  // min-heap on (time, seq)
  }
};

using RefQueue =
    std::priority_queue<RefEvent, std::vector<RefEvent>, LaterThan>;

/// Engine + reference model driven in lockstep.
class Mirror {
 public:
  Mirror() = default;
  /// With `large_closures`, every callback also captures a heap-owning
  /// vector: past std::function's 16-byte inline buffer and not trivially
  /// copyable, so every closure is stored on the heap.
  explicit Mirror(bool large_closures) : large_closures_(large_closures) {}

  /// Schedules an event at `t`; with `depth` < 2 its callback may spawn
  /// children at execution time (mirrored into the model the same way).
  void schedule_at(Seconds t, int depth) {
    const int id = next_id_++;
    model.push(RefEvent{t, next_seq_++, id});
    const auto run = [this, id, depth] {
      executed.push_back(id);
      if (depth < 2 && spawn_rng_.chance(0.4)) {
        const int children = 1 + static_cast<int>(spawn_rng_.below(3));
        for (int c = 0; c < children; ++c) {
          schedule_at(engine.now() + spawn_rng_.uniform(0.0, 40.0),
                      depth + 1);
        }
      }
    };
    if (large_closures_) {
      engine.schedule_at(t, [run, id, tag = std::vector<int>(8, id)] {
        EXPECT_EQ(tag, std::vector<int>(8, id)) << "capture corrupted";
        run();
      });
    } else {
      engine.schedule_at(t, run);
    }
  }

  /// Pops the model and steps the engine; they must agree on which event
  /// runs and at what time.
  void step_and_check() {
    ASSERT_FALSE(model.empty());
    const RefEvent expected = model.top();
    model.pop();
    const std::size_t before = executed.size();
    ASSERT_TRUE(engine.step());
    ASSERT_EQ(executed.size(), before + 1);
    EXPECT_EQ(executed.back(), expected.id)
        << "engine executed a different event than the reference model";
    EXPECT_DOUBLE_EQ(engine.now(), expected.time);
  }

  Engine engine;
  RefQueue model;
  std::vector<int> executed;

 private:
  bool large_closures_ = false;
  std::uint64_t next_seq_ = 0;  // mirrors Engine's internal counter
  int next_id_ = 0;
  Rng spawn_rng_{0xC0FFEE};
};

TEST(EngineProperty, RandomInterleavingsMatchReferenceModel) {
  Mirror m;
  Rng rng(2024);
  int steps = 0;
  for (int op = 0; op < 20'000; ++op) {
    if (m.model.empty() || rng.chance(0.55)) {
      // Bursts at identical timestamps exercise the seq tie-break; the
      // 0.25 mass at now() exercises zero-delay self-scheduling.
      Seconds t = m.engine.now();
      if (!rng.chance(0.25)) t += rng.uniform(0.0, 100.0);
      const int burst = 1 + static_cast<int>(rng.below(4));
      for (int b = 0; b < burst; ++b) m.schedule_at(t, 0);
    } else {
      m.step_and_check();
      ++steps;
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(m.engine.pending(), m.model.size());
  }
  // Drain: every remaining event still pops in model order.
  while (!m.model.empty()) {
    m.step_and_check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_FALSE(m.engine.step());
  EXPECT_EQ(m.engine.executed(), m.executed.size());
  EXPECT_GT(steps, 0);
}

TEST(EngineProperty, RunUntilLeavesPostHorizonEventsQueued) {
  // run_until(h) must execute exactly the model events with time <= h —
  // including events a callback schedules inside the window — and leave
  // the rest queued with the clock parked at h.
  Mirror m;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    m.schedule_at(rng.uniform(0.0, 200.0), 0);
  }
  const Seconds horizon = 100.0;
  while (!m.model.empty() && m.model.top().time <= horizon) {
    m.step_and_check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  const std::size_t in_window = m.executed.size();
  m.engine.run_until(horizon);  // nothing left in the window: only advances
  EXPECT_EQ(m.executed.size(), in_window);
  EXPECT_DOUBLE_EQ(m.engine.now(), horizon);
  EXPECT_EQ(m.engine.pending(), m.model.size());
  EXPECT_GT(m.engine.pending(), 0u);
  for (const int id : m.executed) EXPECT_GE(id, 0);

  // The queued remainder still replays in model order.
  while (!m.model.empty()) {
    m.step_and_check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(m.engine.pending(), 0u);
}

TEST(EngineProperty, DeepBacklogMatchesReferenceModel) {
  // An 80,000-event backlog — ten times paper-asap-rw's peak of 7,919
  // pending events — drained with the callbacks' own spawns interleaved.
  Mirror m;
  Rng rng(137);
  for (int i = 0; i < 80'000; ++i) {
    m.schedule_at(rng.uniform(0.0, 10'000.0), 0);
  }
  while (!m.model.empty()) {
    m.step_and_check();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EngineProperty, LargeClosuresMatchReferenceModel) {
  // Heap-stored closures are moved through the binary heap like inline
  // ones; they must run in the model's order with their captures intact.
  Mirror m(/*large_closures=*/true);
  Rng rng(83);
  for (int op = 0; op < 20'000; ++op) {
    if (m.model.empty() || rng.chance(0.6)) {
      Seconds t = m.engine.now();
      if (!rng.chance(0.2)) t += rng.uniform(0.0, 100.0);
      const int burst = 1 + static_cast<int>(rng.below(4));
      for (int b = 0; b < burst; ++b) m.schedule_at(t, 0);
    } else {
      m.step_and_check();
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(m.engine.pending(), m.model.size());
  }
  while (!m.model.empty()) {
    m.step_and_check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_FALSE(m.engine.step());
}

TEST(EngineProperty, GeometricTailWavesMatchReferenceModel) {
  // Gaps shrink geometrically toward the end of each wave's span
  // (t = base + span * (1 - 2^(-i/8))) to under a nanosecond, every time
  // is scheduled twice (seq tie-break), and pops interleave with
  // insertions into the crowded tail. Order must still match the
  // reference exactly.
  Mirror m;
  Rng rng(211);
  const double span = 1024.0;
  for (int wave = 0; wave < 3; ++wave) {
    const double base = m.engine.now();
    for (int i = 0; i < 300; ++i) {
      const double at =
          base + span * (1.0 - std::exp2(-static_cast<double>(i) / 8.0));
      m.schedule_at(at, 2);
      m.schedule_at(at, 2);  // duplicate time: seq tie-break in the tail
    }
    // Drain most of the wave with occasional tail-region insertions.
    while (m.model.size() > 64) {
      m.step_and_check();
      if (::testing::Test::HasFatalFailure()) return;
      if (rng.chance(0.05)) {
        m.schedule_at(m.engine.now() + rng.uniform(0.0, 1.0 / 1024.0), 2);
      }
      ASSERT_EQ(m.engine.pending(), m.model.size());
    }
  }
  while (!m.model.empty()) {
    m.step_and_check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_FALSE(m.engine.step());
}

TEST(EngineProperty, EventExactlyAtHorizonExecutes) {
  Engine e;
  int fired = 0;
  e.schedule_at(5.0, [&] { ++fired; });
  e.schedule_at(5.0 + 1e-9, [&] { ++fired; });
  e.run_until(5.0);
  EXPECT_EQ(fired, 1) << "boundary events belong to the window (<= t_end)";
  EXPECT_EQ(e.pending(), 1u);
}

}  // namespace
}  // namespace asap::sim
