// Determinism gate for the adversarial fault domain: Byzantine roles,
// storm schedules and the trust/overload defenses are all compiled from
// seeded plans and per-node RNG streams, so an adversarial run must be a
// pure function of (world, seed) — bit-identical when repeated, exactly
// like the crash/partition presets before it.
#include <gtest/gtest.h>

#include "faults/fault_config.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"

namespace asap::harness {
namespace {

ExperimentConfig sweep_config() {
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 29);
  cfg.content.initial_nodes = 300;
  cfg.content.joiner_nodes = 20;
  cfg.trace.num_queries = 150;
  cfg.trace.joins = 10;
  cfg.trace.leaves = 10;
  cfg.warmup = 120.0;
  return cfg;
}

class AdversarialDigestTest : public ::testing::Test {
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

World* AdversarialDigestTest::world_ = nullptr;

constexpr const char* kPresets[] = {"polluted", "storm", "byzantine"};

TEST_F(AdversarialDigestTest, PresetsDigestIdenticallyWhenRepeated) {
  for (const char* preset : kPresets) {
    RunOptions opts;
    opts.faults = faults::fault_preset(preset).config;
    const auto base = run_experiment(*world_, AlgoKind::kAsapRw, opts);
    ASSERT_NE(base.digest, 0u) << preset;
    const auto again = run_experiment(*world_, AlgoKind::kAsapRw, opts);
    EXPECT_EQ(again.digest, base.digest) << preset << " / repeated";
    EXPECT_EQ(again.engine_events, base.engine_events) << preset;
  }
}

TEST_F(AdversarialDigestTest, AdversariesActuallyActAndDefensesEngage) {
  // The digest gate above is vacuous if the roles never fire; pin the
  // fault summary so a refactor cannot silently disarm the adversaries.
  RunOptions opts;
  opts.faults = faults::fault_preset("byzantine").config;
  const auto res = run_experiment(*world_, AlgoKind::kAsapRw, opts);
  EXPECT_TRUE(res.faults.enabled);
  EXPECT_GT(res.faults.polluters, 0u);
  EXPECT_GT(res.faults.stale_advertisers, 0u);
  EXPECT_GT(res.faults.confirm_droppers, 0u);
  EXPECT_GT(res.faults.storm_queries, 0u);
  EXPECT_GT(res.asap_counters.polluted_ads, 0u);
  EXPECT_GT(res.asap_counters.trust_strikes, 0u);
}

TEST_F(AdversarialDigestTest, ArmedZeroRoleConfigKeepsVanillaDigest) {
  // An armed injector whose adversary rates are all zero (and defenses
  // off) must leave the digest bit-identical to the unarmed run — the
  // adversarial subsystem's analogue of the zero-rate determinism guard,
  // and the reason legacy goldens survive this PR unchanged.
  const auto vanilla = run_experiment(*world_, AlgoKind::kAsapRw);
  RunOptions opts;
  opts.faults = faults::FaultConfig{};  // armed, all rates zero
  const auto armed = run_experiment(*world_, AlgoKind::kAsapRw, opts);
  EXPECT_EQ(armed.digest, vanilla.digest);
  EXPECT_EQ(armed.faults.polluters + armed.faults.stale_advertisers +
                armed.faults.confirm_droppers + armed.faults.storms,
            0u);
}

}  // namespace
}  // namespace asap::harness
