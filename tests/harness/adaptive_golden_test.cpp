// Golden gate for the adaptive advertisement variants.
//
// tests/support/adaptive_small.json is a committed matrix run of
// asap(rw) + asap-adaptive + asap-delta on the kSmall preset under the
// churn fault preset (crawled topology, seed 42, 1,000 queries). This test
//   1. replays the exact recorded spec and diffs every digest and metric
//      (the adaptive twins of the golden-metrics gate), and
//   2. pins the headline acceptance claim on the artifact itself: the
//      adaptive scheduler spends >= 25% fewer advertisement bytes than
//      vanilla ASAP(RW) at equal (+/- 1 pp) success under churn.
//
// When a change is intentional, refresh the baseline and commit it:
//
//   build/tools/asap_sim --preset small --topology crawled
//     --algo asap-rw,asap-adaptive,asap-delta --seed 42 --trials 1
//     --queries 1000 --faults churn --json tests/support/adaptive_small.json
//   (one command line; wrapped here for width)
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "../support/golden_replay.hpp"

namespace asap::harness {
namespace {

constexpr const char* kGoldenPath =
    ASAP_TEST_SUPPORT_DIR "/adaptive_small.json";
constexpr const char* kRefreshHint =
    "\nIf this change is intentional, refresh the baseline:\n"
    "  build/tools/asap_sim --preset small --topology crawled "
    "--algo asap-rw,asap-adaptive,asap-delta --seed 42 --trials 1 "
    "--queries 1000 --faults churn --json "
    "tests/support/adaptive_small.json\n";

json::Value load_golden() { return asap::testing::load_results(kGoldenPath); }

TEST(AdaptiveGolden, ChurnMatrixMatchesCommittedBaseline) {
  asap::testing::expect_replay_matches(load_golden(), kRefreshHint);
}

// The acceptance claim, checked against the committed artifact so a
// refreshed baseline cannot silently regress the savings.
TEST(AdaptiveGolden, AdaptiveSavesAdBytesAtEqualSuccessUnderChurn) {
  const json::Value golden = load_golden();
  std::map<std::string, const json::Value*> by_algo;
  for (const auto& run : golden.at("trial_runs").as_array()) {
    by_algo[run.at("algo").as_string()] = &run.at("metrics");
  }
  ASSERT_TRUE(by_algo.count("asap(rw)")) << kRefreshHint;
  ASSERT_TRUE(by_algo.count("asap-adaptive")) << kRefreshHint;
  ASSERT_TRUE(by_algo.count("asap-delta")) << kRefreshHint;

  const auto metric = [&](const char* algo, const char* name) {
    const json::Value* v = by_algo.at(algo)->find(name);
    EXPECT_NE(v, nullptr) << algo << " lacks metric " << name << kRefreshHint;
    return v ? v->as_double() : 0.0;
  };

  const double vanilla_bytes = metric("asap(rw)", "ad_bytes_total");
  const double vanilla_success = metric("asap(rw)", "success_rate");
  ASSERT_GT(vanilla_bytes, 0.0);

  for (const char* algo : {"asap-adaptive", "asap-delta"}) {
    SCOPED_TRACE(algo);
    const double bytes = metric(algo, "ad_bytes_total");
    const double success = metric(algo, "success_rate");
    // >= 25% fewer advertisement bytes than vanilla...
    EXPECT_LE(bytes, 0.75 * vanilla_bytes)
        << "ad-byte savings fell below the 25% acceptance floor"
        << kRefreshHint;
    // ...at equal success (within one percentage point).
    EXPECT_NEAR(success, vanilla_success, 0.01) << kRefreshHint;
    // The savings must come from the packed-round machinery actually
    // running, not from ads silently not being sent.
    EXPECT_GT(metric(algo, "ad_bytes_packed"), 0.0);
    EXPECT_GT(metric(algo, "ad_rounds"), 0.0);
  }

  // Vanilla ASAP runs no packed rounds: it reports both metrics, as 0.
  EXPECT_EQ(metric("asap(rw)", "ad_bytes_packed"), 0.0);
  EXPECT_EQ(metric("asap(rw)", "ad_rounds"), 0.0);
}

}  // namespace
}  // namespace asap::harness
