// Golden gate for the adversarial-resilience subsystem (DESIGN.md §16).
//
// tests/support/adversarial_small.json is a committed matrix run of
// asap(rw) on the kSmall preset across five fault scenarios — none,
// polluted-open/polluted (20% ad polluters, defense off/on) and
// storm-open/storm (flash-crowd query storms, shedding off/on) — crawled
// topology, seed 42, 1,000 queries. This test
//   1. replays the exact recorded spec and diffs every digest and metric
//      (the adversarial twin of the golden-metrics gate), and
//   2. pins the headline resilience claims on the artifact itself:
//      trust scoring recovers at least half the success-rate loss the
//      polluters inflict, at equal-or-lower advertisement bandwidth; and
//      query shedding bounds the pending queue at the configured cap
//      while keeping legitimate success within 2 pp of the unshedded run.
//
// When a change is intentional, refresh the baseline and commit it:
//
//   build/tools/asap_sim --preset small --topology crawled
//     --algo asap-rw --seed 42 --trials 1 --queries 1000
//     --faults none,polluted-open,polluted,storm-open,storm
//     --json tests/support/adversarial_small.json
//   (one command line; wrapped here for width)
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "../support/golden_replay.hpp"

namespace asap::harness {
namespace {

constexpr const char* kGoldenPath =
    ASAP_TEST_SUPPORT_DIR "/adversarial_small.json";
constexpr const char* kRefreshHint =
    "\nIf this change is intentional, refresh the baseline:\n"
    "  build/tools/asap_sim --preset small --topology crawled "
    "--algo asap-rw --seed 42 --trials 1 --queries 1000 "
    "--faults none,polluted-open,polluted,storm-open,storm --json "
    "tests/support/adversarial_small.json\n";

json::Value load_golden() { return asap::testing::load_results(kGoldenPath); }

/// trial_runs rows keyed by fault-scenario name (one algo, one trial).
std::map<std::string, const json::Value*> rows_by_scenario(
    const json::Value& golden) {
  std::map<std::string, const json::Value*> rows;
  for (const auto& run : golden.at("trial_runs").as_array()) {
    rows[run.at("faults").as_string()] = &run;
  }
  return rows;
}

double metric(const json::Value& row, const char* name) {
  const json::Value* v = row.at("metrics").find(name);
  EXPECT_NE(v, nullptr) << "row lacks metric " << name << kRefreshHint;
  return v ? v->as_double() : 0.0;
}

TEST(AdversarialGolden, MatrixMatchesCommittedBaseline) {
  asap::testing::expect_replay_matches(load_golden(), kRefreshHint);
}

// Acceptance claim 1, checked against the committed artifact so a
// refreshed baseline cannot silently regress the defense: at 20% ad
// polluters, trust scoring recovers at least half of the success-rate
// loss the undefended run suffers — without spending more ad bytes than
// the undefended run (quarantined sources stop being advertised for).
TEST(AdversarialGolden, TrustRecoversPollutedLossAtNoExtraBandwidth) {
  const json::Value golden = load_golden();
  const auto rows = rows_by_scenario(golden);
  ASSERT_TRUE(rows.count("none")) << kRefreshHint;
  ASSERT_TRUE(rows.count("polluted-open")) << kRefreshHint;
  ASSERT_TRUE(rows.count("polluted")) << kRefreshHint;

  const double clean = metric(*rows.at("none"), "success_rate");
  const double open = metric(*rows.at("polluted-open"), "success_rate");
  const double defended = metric(*rows.at("polluted"), "success_rate");
  const double loss = clean - open;
  EXPECT_GT(loss, 0.0)
      << "polluters no longer hurt the undefended run — the attack arm of "
         "the golden is vacuous"
      << kRefreshHint;
  EXPECT_GE(defended - open, 0.5 * loss)
      << "trust scoring recovered less than half the polluted loss (clean "
      << clean << ", open " << open << ", defended " << defended << ")"
      << kRefreshHint;

  const double open_bytes = metric(*rows.at("polluted-open"),
                                   "ad_bytes_total");
  const double defended_bytes = metric(*rows.at("polluted"),
                                       "ad_bytes_total");
  EXPECT_LE(defended_bytes, open_bytes)
      << "defense-on spent more advertisement bytes than defense-off"
      << kRefreshHint;

  // The recovery must come from the trust machinery actually engaging.
  const json::Value& defended_row = *rows.at("polluted");
  EXPECT_GT(metric(defended_row, "polluted_ads"), 0.0) << kRefreshHint;
  EXPECT_GT(metric(defended_row, "trust_strikes"), 0.0) << kRefreshHint;
  EXPECT_GT(metric(defended_row, "quarantines"), 0.0) << kRefreshHint;
}

// Acceptance claim 2: under flash-crowd storms, the bounded pending-query
// queue keeps its peak depth at or below the configured cap, and shedding
// costs the legitimate workload at most 2 pp of success versus the
// unshedded storm run (storm queries themselves are synthetic and never
// counted in success_rate).
TEST(AdversarialGolden, SheddingBoundsPendingDepthAtNearZeroSuccessCost) {
  const json::Value golden = load_golden();
  const auto rows = rows_by_scenario(golden);
  ASSERT_TRUE(rows.count("storm-open")) << kRefreshHint;
  ASSERT_TRUE(rows.count("storm")) << kRefreshHint;

  // The storm preset's pending_query_cap (fault_config.cpp).
  const double cap =
      faults::fault_preset("storm").config.pending_query_cap;
  ASSERT_GT(cap, 0.0);

  const json::Value& shielded = *rows.at("storm");
  EXPECT_LE(metric(shielded, "peak_pending_depth"), cap)
      << "pending-query queue overran the shedding cap" << kRefreshHint;
  EXPECT_GT(metric(shielded, "storm_queries"), 0.0)
      << "no storm queries fired — the overload arm is vacuous"
      << kRefreshHint;

  const double open = metric(*rows.at("storm-open"), "success_rate");
  const double shielded_succ = metric(*rows.at("storm"), "success_rate");
  EXPECT_GE(shielded_succ, open - 0.02)
      << "shedding cost the legitimate workload more than 2 pp"
      << kRefreshHint;

  // The unshedded control really ran without the shield.
  EXPECT_EQ(metric(*rows.at("storm-open"), "queries_shed"), 0.0)
      << kRefreshHint;
}

}  // namespace
}  // namespace asap::harness
