// The callback storage path (inline SBO vs forced SlabPool fallback) is a
// pure speed choice: both must replay a world to a bit-identical run
// digest, for all six algorithms, with and without fault injection.
#include <gtest/gtest.h>

#include "faults/fault_config.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"

namespace asap::harness {
namespace {

/// Smaller than determinism_test's world: this suite replays 6 algorithms
/// x 3 fault presets x 2 engine configurations.
ExperimentConfig sweep_config() {
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 23);
  cfg.content.initial_nodes = 300;
  cfg.content.joiner_nodes = 20;
  cfg.trace.num_queries = 150;
  cfg.trace.joins = 10;
  cfg.trace.leaves = 10;
  cfg.warmup = 120.0;
  return cfg;
}

class EngineDigestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new World(build_world(sweep_config()));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static World* world_;
};

World* EngineDigestTest::world_ = nullptr;

/// `opts` with every event closure forced through the engine's SlabPool.
RunOptions pooled(RunOptions opts) {
  opts.engine_tuning.force_heap_callbacks = true;
  return opts;
}

TEST_F(EngineDigestTest, AllQueueAndCallbackPathsMatchDefaultDigest) {
  for (const auto kind : kAllAlgos) {
    const auto base = run_experiment(*world_, kind);
    ASSERT_NE(base.digest, 0u) << algo_name(kind);
    const auto res = run_experiment(*world_, kind, pooled(RunOptions{}));
    EXPECT_EQ(res.digest, base.digest) << algo_name(kind);
    EXPECT_EQ(res.engine_events, base.engine_events) << algo_name(kind);
  }
}

TEST_F(EngineDigestTest, SweepHoldsUnderFaultPresets) {
  // Fault injection reshapes the event population (crash timers, burst
  // windows, jittered latencies), so the identity must hold under the
  // fault presets too. A representative algorithm pair keeps the suite's
  // runtime bounded: one baseline, one ASAP variant.
  for (const auto kind : {AlgoKind::kFlooding, AlgoKind::kAsapRw}) {
    for (const char* preset : {"churn", "chaos"}) {
      RunOptions base_opts;
      base_opts.faults = faults::fault_preset(preset).config;
      const auto base = run_experiment(*world_, kind, base_opts);
      ASSERT_NE(base.digest, 0u) << algo_name(kind) << " / " << preset;
      const auto res = run_experiment(*world_, kind, pooled(base_opts));
      EXPECT_EQ(res.digest, base.digest) << algo_name(kind) << " / " << preset;
    }
  }
}

}  // namespace
}  // namespace asap::harness
