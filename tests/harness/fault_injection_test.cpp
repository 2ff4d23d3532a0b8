// Fault-injection subsystem over the full replay harness.
//
// The headline contracts (tier 1):
//   * determinism guard — an *armed* injector whose config is all-zero
//     changes nothing: digests are bit-identical to the plain run;
//   * bounded termination — even total blackout (message_loss = 1.0, or a
//     burst window at loss 1.0 over the whole run) with confirm retries on
//     terminates with finite cost and a clean audit;
//   * under real churn the hardened protocol retries confirms, evicts
//     stale ads, and the invariant auditor stays green.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include "../support/golden_replay.hpp"
#include "common/error.hpp"
#include "faults/fault_config.hpp"
#include "harness/matrix_runner.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"
#include "obs/observer.hpp"

namespace asap::harness {
namespace {

ExperimentConfig tiny_config() {
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 23);
  cfg.content.initial_nodes = 400;
  cfg.content.joiner_nodes = 30;
  cfg.trace.num_queries = 300;
  cfg.trace.joins = 20;
  cfg.trace.leaves = 20;
  cfg.warmup = 120.0;
  return cfg;
}

/// A churn-heavy scenario sized for the tiny world: enough crash-stop
/// failures that stale ads are confirmed (and strike out) repeatedly.
faults::FaultConfig heavy_churn() {
  faults::FaultConfig cfg = faults::fault_preset("churn").config;
  cfg.crash_fraction = 0.15;
  return cfg;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new World(build_world(tiny_config()));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static World* world_;
};

World* FaultInjectionTest::world_ = nullptr;

// The tier-1 determinism guard: arming the injector with an all-zero
// config must leave every algorithm's digest bit-identical.
TEST_F(FaultInjectionTest, ZeroRateArmedInjectorIsBitIdentical) {
  for (const auto kind : kAllAlgos) {
    const auto plain = run_experiment(*world_, kind);
    RunOptions opts;
    opts.faults = faults::FaultConfig{};  // armed, all rates zero
    const auto armed = run_experiment(*world_, kind, opts);
    EXPECT_TRUE(armed.faults.enabled) << algo_name(kind);
    EXPECT_EQ(plain.digest, armed.digest) << algo_name(kind);
    EXPECT_EQ(plain.engine_events, armed.engine_events) << algo_name(kind);
    EXPECT_EQ(armed.faults.crashes, 0u);
    EXPECT_EQ(armed.faults.dead_sends, 0u);
  }
}

/// ASAP parameter overrides covering both placements: the preset's flat
/// defaults, and the superpeer placement with `scheme`.
std::vector<std::optional<ads::AsapParams>> both_placements(
    search::Scheme scheme) {
  return {std::nullopt, ads::AsapParams::superpeer(scheme)};
}

TEST_F(FaultInjectionTest, ChurnHardensRetriesAndEvictsStaleAds) {
  for (const auto& asap : both_placements(search::Scheme::kRandomWalk)) {
    RunOptions opts;
    opts.asap = asap;
    opts.faults = heavy_churn();
    opts.audit = true;
    SCOPED_TRACE(asap ? "superpeer" : "flat");
    const auto res = run_experiment(*world_, AlgoKind::kAsapRw, opts);
    EXPECT_EQ(res.algo, asap ? "sp-asap(rw)" : "asap(rw)")
        << "the result names the placement that ran";
    EXPECT_TRUE(res.faults.enabled);
    EXPECT_GT(res.faults.crashes, 0u);
    EXPECT_GT(res.faults.dead_sends, 0u);
    EXPECT_GT(res.asap_counters.confirm_retries, 0u);
    EXPECT_GT(res.asap_counters.retry_bytes, 0u);
    EXPECT_GT(res.asap_counters.stale_evictions, 0u);
    EXPECT_GT(res.search.total_after_onset(), 0u);
    EXPECT_GE(res.search.success_rate_after_onset(), 0.0);
    EXPECT_LE(res.search.success_rate_after_onset(), 1.0);
    ASSERT_TRUE(res.audited);
    EXPECT_EQ(res.audit_violations, 0u)
        << (res.audit_messages.empty() ? "" : res.audit_messages.front());
  }
}

TEST_F(FaultInjectionTest, BaselinesPayForSendsIntoTheVoid) {
  RunOptions opts;
  opts.faults = heavy_churn();
  opts.audit = true;
  const auto res = run_experiment(*world_, AlgoKind::kFlooding, opts);
  EXPECT_GT(res.faults.crashes, 0u);
  EXPECT_GT(res.faults.dead_sends, 0u)
      << "flooding must keep paying for transmissions to crashed-but-"
         "undetected neighbors";
  ASSERT_TRUE(res.audited);
  EXPECT_EQ(res.audit_violations, 0u);
}

// Bounded termination, part 1: scalar total blackout. Confirm retries are
// capped and budgeted, so even at loss 1.0 the run completes and audits.
TEST_F(FaultInjectionTest, TotalMessageLossTerminatesWithRetriesOn) {
  RunOptions opts;
  opts.message_loss = 1.0;
  faults::FaultConfig cfg;  // no injected faults, hardening knobs only
  cfg.confirm_attempts = 3;
  cfg.stale_strikes = 2;
  cfg.confirm_backoff = 0.5;
  opts.faults = cfg;
  opts.audit = true;
  const auto res = run_experiment(*world_, AlgoKind::kAsapRw, opts);
  EXPECT_GT(res.engine_events, 0u);
  ASSERT_TRUE(res.audited);
  EXPECT_EQ(res.audit_violations, 0u)
      << (res.audit_messages.empty() ? "" : res.audit_messages.front());
}

// Bounded termination, part 2: a loss-1.0 burst window covering the whole
// run drops every transmission at the fault layer instead.
TEST_F(FaultInjectionTest, TotalBurstBlackoutTerminates) {
  RunOptions opts;
  faults::FaultConfig cfg;
  cfg.bursts = 1;
  cfg.burst_loss = 1.0;
  cfg.burst_duration = 1e6;  // outlasts the horizon
  cfg.confirm_attempts = 3;
  cfg.stale_strikes = 2;
  cfg.confirm_backoff = 0.5;
  opts.faults = cfg;
  opts.audit = true;
  const auto res = run_experiment(*world_, AlgoKind::kAsapRw, opts);
  EXPECT_GT(res.faults.burst_drops, 0u);
  ASSERT_TRUE(res.audited);
  EXPECT_EQ(res.audit_violations, 0u)
      << (res.audit_messages.empty() ? "" : res.audit_messages.front());
}

TEST_F(FaultInjectionTest, FaultRunsAreDeterministic) {
  for (const auto& asap : both_placements(search::Scheme::kGsa)) {
    RunOptions opts;
    opts.asap = asap;
    opts.faults = heavy_churn();
    SCOPED_TRACE(asap ? "superpeer" : "flat");
    const auto a = run_experiment(*world_, AlgoKind::kAsapGsa, opts);
    const auto b = run_experiment(*world_, AlgoKind::kAsapGsa, opts);
    EXPECT_EQ(a.algo, asap ? "sp-asap(gsa)" : "asap(gsa)");
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.engine_events, b.engine_events);
    EXPECT_EQ(a.faults.dead_sends, b.faults.dead_sends);
    EXPECT_EQ(a.asap_counters.confirm_retries,
              b.asap_counters.confirm_retries);
    // The injected schedule derives from the world seed alone, so every
    // algorithm faces the same crashes.
    const auto c = run_experiment(*world_, AlgoKind::kFlooding, opts);
    EXPECT_EQ(a.faults.crashes, c.faults.crashes);
    EXPECT_DOUBLE_EQ(a.faults.first_fault_time, c.faults.first_fault_time);
  }
}

// Observability stays passive under faults, and the new span kinds appear.
TEST_F(FaultInjectionTest, TracedFaultRunIsPassiveAndEmitsFaultSpans) {
  RunOptions opts;
  opts.faults = heavy_churn();
  const auto plain = run_experiment(*world_, AlgoKind::kAsapRw, opts);

  std::ostringstream trace_out;
  obs::ObsConfig ocfg;
  ocfg.trace_out = &trace_out;
  obs::RunObserver observer(ocfg);
  opts.observer = &observer;
  const auto traced = run_experiment(*world_, AlgoKind::kAsapRw, opts);
  EXPECT_EQ(plain.digest, traced.digest);
  const std::string trace = trace_out.str();
  EXPECT_NE(trace.find("\"type\":\"fault\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\":\"crash\""), std::string::npos);
  EXPECT_NE(trace.find("\"type\":\"retry\""), std::string::npos);
  EXPECT_NE(trace.find("\"type\":\"stale-evict\""), std::string::npos);
}

TEST(FaultMatrix, ScenarioAxisSweepsAndSerializes) {
  MatrixSpec spec;
  spec.preset = Preset::kSmall;
  spec.topologies = {TopologyKind::kCrawled};
  spec.algos = {AlgoKind::kAsapRw};
  spec.fault_scenarios = {faults::fault_preset("none"),
                          faults::FaultScenario{"heavy-churn", heavy_churn()}};
  spec.seed = 23;
  spec.trials = 1;
  spec.queries = 200;
  spec.tweak = [](ExperimentConfig& cfg) {
    cfg.content.initial_nodes = 400;
    cfg.content.joiner_nodes = 30;
    cfg.trace.joins = 20;
    cfg.trace.leaves = 20;
    cfg.warmup = 120.0;
  };
  const MatrixResult result = run_matrix(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  ASSERT_EQ(result.trials.size(), 2u);
  EXPECT_EQ(result.cells[0].scenario, "none");
  EXPECT_EQ(result.cells[1].scenario, "heavy-churn");
  EXPECT_NE(result.trials[0].result.digest, result.trials[1].result.digest);

  // Both cells report the same metrics; only the armed one counts churn.
  const auto metric = [](const CellAggregate& cell, const char* name) {
    for (const auto& [k, v] : cell.metrics) {
      if (k == name) return v.mean;
    }
    ADD_FAILURE() << "no metric " << name;
    return -1.0;
  };
  ASSERT_EQ(result.cells[0].metrics.size(), result.cells[1].metrics.size());
  for (std::size_t i = 0; i < result.cells[0].metrics.size(); ++i) {
    EXPECT_EQ(result.cells[0].metrics[i].first,
              result.cells[1].metrics[i].first);
  }
  EXPECT_EQ(metric(result.cells[0], "queries_under_churn"), 0.0);
  EXPECT_GT(metric(result.cells[1], "queries_under_churn"), 0.0);
  EXPECT_FALSE(result.trials[0].result.faults.enabled);
  EXPECT_TRUE(result.trials[1].result.faults.enabled);

  // The spec round-trips through results.json, scenarios included.
  const json::Value doc = results_to_json(result);
  const MatrixSpec back = spec_from_json(doc);
  ASSERT_EQ(back.fault_scenarios.size(), 2u);
  EXPECT_EQ(back.fault_scenarios[0].name, "none");
  EXPECT_EQ(back.fault_scenarios[1].name, "heavy-churn");
  EXPECT_DOUBLE_EQ(back.fault_scenarios[1].config.crash_fraction,
                   heavy_churn().crash_fraction);
  // And per-trial fault summaries land in the document.
  const auto& runs = doc.at("trial_runs").as_array();
  EXPECT_EQ(runs[0].find("fault_summary"), nullptr);
  ASSERT_NE(runs[1].find("fault_summary"), nullptr);
  EXPECT_EQ(runs[1].at("faults").as_string(), "heavy-churn");
}

// tests/support/fault_small.json is a committed fault-scenario run
// (asap-rw, crawled, churn preset, seed 42, 2,000 queries). It documents
// what hardening looks like in results.json: the fault axis, the
// fault_summary, and non-zero retry/eviction counters. The replay gate
// below keeps its numbers those of the current simulator.
constexpr const char* kFaultArtifact =
    ASAP_TEST_SUPPORT_DIR "/fault_small.json";

TEST(FaultArtifact, CommittedChurnRunReplaysBitIdentically) {
  asap::testing::expect_replay_matches(
      asap::testing::load_results(kFaultArtifact),
      "\nIf this change is intentional, refresh the artifact:\n"
      "  build/tools/asap_sim --preset small --topology crawled "
      "--algo asap-rw --seed 42 --trials 1 --queries 2000 --faults churn "
      "--json tests/support/fault_small.json\n");
}

TEST(FaultArtifact, CommittedChurnRunHasNonzeroHardeningCounters) {
  const json::Value doc = asap::testing::load_results(kFaultArtifact);
  ASSERT_EQ(doc.at("schema").as_string(), "asap-matrix-results/1");

  const MatrixSpec spec = spec_from_json(doc);
  ASSERT_EQ(spec.fault_scenarios.size(), 1u);
  EXPECT_EQ(spec.fault_scenarios[0].name, "churn");
  EXPECT_TRUE(spec.fault_scenarios[0].config.any());

  const auto& runs = doc.at("trial_runs").as_array();
  ASSERT_FALSE(runs.empty());
  const json::Value& run = runs.front();
  EXPECT_EQ(run.at("faults").as_string(), "churn");
  const json::Value& metrics = run.at("metrics");
  EXPECT_GT(metrics.at("stale_evictions").as_double(), 0.0);
  EXPECT_GT(metrics.at("confirm_retries").as_double(), 0.0);
  EXPECT_GT(metrics.at("retry_overhead_bytes").as_double(), 0.0);
  EXPECT_GT(metrics.at("dead_sends").as_double(), 0.0);
  EXPECT_GT(metrics.at("queries_under_churn").as_double(), 0.0);
  EXPECT_GT(run.at("fault_summary").at("crashes").as_double(), 0.0);
}

TEST(FaultMatrix, SpecWithoutScenarioKeyIsRejected) {
  // Every results.json records its fault axis; a document without it is
  // malformed, not an old format with a default.
  MatrixResult result;
  result.spec.algos = {AlgoKind::kFlooding};
  json::Value doc = results_to_json(result);
  auto& spec_obj = doc.as_object();
  for (auto& [key, value] : spec_obj) {
    if (key != "spec") continue;
    auto& inner = value.as_object();
    inner.erase(
        std::remove_if(inner.begin(), inner.end(),
                       [](const auto& kv) {
                         return kv.first == "fault_scenarios";
                       }),
        inner.end());
  }
  EXPECT_THROW(spec_from_json(doc), ConfigError);
}

}  // namespace
}  // namespace asap::harness
