#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace asap::sim {
namespace {

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.executed(), 3u);
}

TEST(Engine, TiesBreakByScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, RejectsPastEvents) {
  Engine e;
  e.schedule_at(2.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(1.0, [] {}), ConfigError);
}

TEST(Engine, RejectsNonFiniteEventTimes) {
  // Regression (ISSUE 6): a NaN time used to slip past the past-event
  // check (NaN >= now_ is false... but the throw message blamed "the
  // past") and ±inf passed outright, silently corrupting queue ordering
  // and the run digest. All three must throw ConfigError up front.
  Engine e;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(e.schedule_at(nan, [] {}), ConfigError);
  EXPECT_THROW(e.schedule_at(inf, [] {}), ConfigError);
  EXPECT_THROW(e.schedule_at(-inf, [] {}), ConfigError);
  EXPECT_THROW(e.schedule_in(nan, [] {}), ConfigError);
  EXPECT_THROW(e.schedule_in(inf, [] {}), ConfigError);
  EXPECT_EQ(e.pending(), 0u) << "rejected events must not be queued";
  e.schedule_at(1.0, [] {});  // engine still usable
  e.run();
  EXPECT_EQ(e.executed(), 1u);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(4.0, [&] {
    e.schedule_in(2.5, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 6.5);
}

TEST(Engine, RunUntilLeavesLaterEventsQueued) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(10.0, [&] { ++fired; });
  e.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);  // clock advances to the barrier
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine e;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 100) e.schedule_in(0.1, step);
  };
  e.schedule_at(0.0, step);
  e.run();
  EXPECT_EQ(chain, 100);
  EXPECT_NEAR(e.now(), 9.9, 1e-9);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, HeapStressRandomOrder) {
  // Property: any schedule order pops in non-decreasing time order.
  Engine e;
  Rng rng(99);
  std::vector<double> times;
  for (int i = 0; i < 5'000; ++i) times.push_back(rng.uniform(0.0, 1e4));
  double last = -1.0;
  int executed = 0;
  for (double t : times) {
    e.schedule_at(t, [&last, &executed, t, &e] {
      EXPECT_GE(t, last);
      EXPECT_DOUBLE_EQ(e.now(), t);
      last = t;
      ++executed;
    });
  }
  e.run();
  EXPECT_EQ(executed, 5'000);
}

TEST(Engine, DigestIdenticalAcrossQueueAndCallbackConfigurations) {
  // The digest hashes executed (time, seq) pairs, so inline and
  // forced-pool callbacks must agree bit for bit. The expected constant is
  // the digest the previous heap/ladder engine computed for this workload,
  // so the pop order is checked against that engine, not only against
  // itself.
  const auto run_with = [](const EngineTuning& tuning) {
    Engine e(tuning);
    Rng rng(0xD1CE5);
    for (int i = 0; i < 20'000; ++i) {
      // A slice of events re-schedules follow-ups, exercising pushes into
      // partially consumed queues.
      if (i % 7 == 0) {
        e.schedule_at(rng.uniform(0.0, 1000.0), [&e, i] {
          e.schedule_in(0.25 + static_cast<double>(i % 13), [] {});
        });
      } else {
        e.schedule_at(rng.uniform(0.0, 1000.0), [] {});
      }
    }
    e.run();
    return e.digest();
  };

  const std::uint64_t base = run_with(EngineTuning{});
  EXPECT_EQ(base, 0x2b69745dec3ef955ULL) << "default digest moved";

  EngineTuning pooled;
  pooled.force_heap_callbacks = true;
  EXPECT_EQ(run_with(pooled), base) << "pooled-callback digest diverged";
}

}  // namespace
}  // namespace asap::sim
