// Determinism and invariant-audit coverage for the full replay harness:
// two runs of the same world must produce bit-identical digests, and an
// audited run of every algorithm must finish with zero violations.
#include <gtest/gtest.h>

#include "harness/replay.hpp"
#include "harness/world.hpp"

namespace asap::harness {
namespace {

/// Smaller than replay_test's world: this suite runs every algorithm twice.
ExperimentConfig tiny_config() {
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 11);
  cfg.content.initial_nodes = 400;
  cfg.content.joiner_nodes = 30;
  cfg.trace.num_queries = 300;
  cfg.trace.joins = 20;
  cfg.trace.leaves = 20;
  cfg.warmup = 120.0;
  return cfg;
}

class DeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new World(build_world(tiny_config())); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static World* world_;
};

World* DeterminismTest::world_ = nullptr;

TEST_F(DeterminismTest, IdenticalRunsProduceIdenticalDigests) {
  for (const auto kind : kAllAlgos) {
    const auto a = run_experiment(*world_, kind);
    const auto b = run_experiment(*world_, kind);
    EXPECT_NE(a.digest, 0u) << algo_name(kind);
    EXPECT_EQ(a.digest, b.digest) << algo_name(kind);
    EXPECT_EQ(a.engine_events, b.engine_events) << algo_name(kind);
  }
}

TEST_F(DeterminismTest, DifferentAlgorithmsProduceDifferentDigests) {
  const auto fld = run_experiment(*world_, AlgoKind::kFlooding);
  const auto rw = run_experiment(*world_, AlgoKind::kRandomWalk);
  EXPECT_NE(fld.digest, rw.digest);
}

// No golden runs interest-biased ad delivery (AsapParams::interest_bias,
// search::biased_walk), so this pins its digest: it moves only if a biased
// walk filters, draws or pays for its hops differently.
TEST_F(DeterminismTest, InterestBiasedDeliveryDigestIsPinned) {
  RunOptions opts;
  opts.asap = default_asap_params(AlgoKind::kAsapRw, Preset::kSmall);
  opts.asap->interest_bias = 4.0;
  const auto biased = run_experiment(*world_, AlgoKind::kAsapRw, opts);
  EXPECT_EQ(biased.digest, 0x2eeb51d9c35daa25ULL);
  EXPECT_NE(biased.digest, run_experiment(*world_, AlgoKind::kAsapRw).digest);
}

TEST_F(DeterminismTest, AuditedRunsAreViolationFree) {
  RunOptions opts;
  opts.audit = true;
  for (const auto kind : kAllAlgos) {
    const auto res = run_experiment(*world_, kind, opts);
    EXPECT_TRUE(res.audited) << algo_name(kind);
    EXPECT_EQ(res.audit_violations, 0u)
        << algo_name(kind) << ": "
        << (res.audit_messages.empty() ? "" : res.audit_messages.front());
  }
}

TEST_F(DeterminismTest, AuditHoldsUnderMessageLoss) {
  // Dropped messages must be accounted (sent bytes are charged at the
  // sender even when the copy is lost), so the conservation invariants
  // hold with loss enabled too.
  RunOptions opts;
  opts.audit = true;
  opts.message_loss = 0.1;
  for (const auto kind : {AlgoKind::kFlooding, AlgoKind::kAsapRw}) {
    const auto res = run_experiment(*world_, kind, opts);
    EXPECT_EQ(res.audit_violations, 0u)
        << algo_name(kind) << ": "
        << (res.audit_messages.empty() ? "" : res.audit_messages.front());
  }
}

TEST_F(DeterminismTest, AuditingDoesNotPerturbTheDigest) {
  // All six algorithms: the audit hooks (and, in ASAP_AUDIT builds, the
  // hashed-scan and popcount oracles) must be pure observers — bit-for-bit
  // identical digests with auditing on and off.
  RunOptions audited;
  audited.audit = true;
  for (const auto kind : kAllAlgos) {
    const auto plain = run_experiment(*world_, kind);
    const auto checked = run_experiment(*world_, kind, audited);
    EXPECT_EQ(plain.digest, checked.digest) << algo_name(kind);
  }
}

}  // namespace
}  // namespace asap::harness
