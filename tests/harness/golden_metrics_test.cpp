// Golden-metrics regression gate.
//
// tests/support/golden_small.json is a committed results.json produced by
// the matrix runner on the kSmall preset (all six algorithms, crawled
// topology, seed 42). This test re-runs the exact spec recorded in the
// file and diffs every per-trial digest and every headline metric against
// it (tests/support/golden_replay.hpp), so "did PR X silently change
// Fig 4-9?" is a red test with a readable diff instead of an eyeball check.
//
// When a change is *intentional*, refresh the baseline with this one
// command line and commit it (EXPERIMENTS.md, "Matrix runner" section):
//
//   build/tools/asap_sim --preset small --topology crawled --algo all
//     --seed 42 --trials 1 --json tests/support/golden_small.json
#include <gtest/gtest.h>

#include "../support/golden_replay.hpp"

namespace asap::harness {
namespace {

TEST(GoldenMetrics, SmallPresetMatchesCommittedBaseline) {
  asap::testing::expect_replay_matches(
      asap::testing::load_results(ASAP_TEST_SUPPORT_DIR "/golden_small.json"),
      "\nIf this change is intentional, refresh the baseline:\n"
      "  build/tools/asap_sim --preset small --topology crawled --algo all "
      "--seed 42 --trials 1 --json tests/support/golden_small.json\n");
}

}  // namespace
}  // namespace asap::harness
