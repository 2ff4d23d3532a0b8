// The --scale axis (DESIGN.md §15): apply_scale() re-dimensioning rules,
// spec round-trip of the scale / stream_trace keys through results.json
// (including absent-key defaults for pre-scale documents), and the load-
// bearing digest identity — a matrix run with on-demand trace synthesis is
// bit-identical to the same matrix with materialized traces, with faults
// armed and off.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/json.hpp"
#include "faults/fault_config.hpp"
#include "harness/config.hpp"
#include "harness/matrix_runner.hpp"
#include "harness/world.hpp"

namespace asap::harness {
namespace {

void shrink(ExperimentConfig& cfg) {
  cfg.content.initial_nodes = 300;
  cfg.content.joiner_nodes = 20;
  cfg.trace.num_queries = 200;
  cfg.trace.joins = 10;
  cfg.trace.leaves = 10;
  cfg.warmup = 120.0;
}

MatrixSpec tiny_spec() {
  MatrixSpec spec;
  spec.preset = Preset::kSmall;
  spec.topologies = {TopologyKind::kCrawled};
  spec.algos = {AlgoKind::kFlooding, AlgoKind::kRandomWalk, AlgoKind::kAsapRw};
  spec.seed = 7;
  spec.trials = 1;
  spec.tweak = shrink;
  return spec;
}

TEST(ApplyScale, RedimensionsEveryCoupledKnob) {
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 1);
  cfg.apply_scale(50'000);
  EXPECT_EQ(cfg.scale, 50'000u);
  EXPECT_EQ(cfg.content.initial_nodes, 50'000u);
  EXPECT_EQ(cfg.content.joiner_nodes, 5'000u);
  EXPECT_LE(cfg.trace.joins, 2'000u);
  EXPECT_LE(cfg.trace.leaves, 2'000u);
  EXPECT_GE(cfg.content.popular_terms_per_class, 1'000u);
  // The physical network must offer at least one stub slot per peer
  // (initial nodes + joiners).
  const auto slots = static_cast<std::uint64_t>(cfg.phys.total_stub_domains()) *
                     cfg.phys.stub_nodes_per_domain;
  EXPECT_GE(slots, 55'000u);
  EXPECT_FALSE(cfg.stream_trace) << "below the auto-streaming threshold";

  cfg.apply_scale(100'000);
  EXPECT_TRUE(cfg.stream_trace) << "large worlds stream by default";
}

TEST(ApplyScale, SmallScaleKeepsMaterializedTraces) {
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 1);
  cfg.apply_scale(10'000);
  EXPECT_EQ(cfg.content.initial_nodes, 10'000u);
  EXPECT_FALSE(cfg.stream_trace);
}

TEST(ScaleAxis, SpecRoundTripsThroughResultsJson) {
  auto spec = tiny_spec();
  spec.algos = {AlgoKind::kFlooding};
  spec.stream_trace = true;
  // A scale override would fight the shrink tweak; exercise it purely on
  // the serialization path by patching the recorded spec.
  auto result = run_matrix(spec);
  result.spec.scale = 250'000;

  const auto doc = json::parse(json::dump(results_to_json(result)));
  const auto parsed = spec_from_json(doc);
  EXPECT_EQ(parsed.scale, 250'000u);
  EXPECT_TRUE(parsed.stream_trace);
}

TEST(ScaleAxis, SpecWithoutScaleKeysIsRejected) {
  // Every results.json records the scale axis; a document missing either
  // key is malformed, not an old format with a default.
  auto spec = tiny_spec();
  spec.algos = {AlgoKind::kFlooding};
  const auto result = run_matrix(spec);
  for (const char* missing : {"scale", "stream_trace"}) {
    auto doc = results_to_json(result);
    for (auto& [key, value] : doc.as_object()) {
      if (key != "spec") continue;
      std::erase_if(value.as_object(),
                    [&](const auto& kv) { return kv.first == missing; });
    }
    EXPECT_THROW(spec_from_json(json::parse(json::dump(doc))), ConfigError)
        << missing;
  }
}

TEST(ScaleAxis, TrialRunsCarryThroughputInstrumentation) {
  auto spec = tiny_spec();
  // Baseline algorithms run their propagation synchronously (0 engine
  // events by design); ASAP schedules real engine events and owns real
  // protocol state, so it exercises all three instrumentation fields.
  spec.algos = {AlgoKind::kAsapRw};
  const auto result = run_matrix(spec);
  ASSERT_EQ(result.trials.size(), 1u);
  const auto& r = result.trials[0].result;
  EXPECT_GT(r.events_per_sec, 0.0);
  EXPECT_GT(r.state_bytes, 0u);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(r.peak_rss_bytes, 0u);
#endif
  const auto doc = json::parse(json::dump(results_to_json(result)));
  const auto& run0 = doc.at("trial_runs").as_array()[0];
  EXPECT_GT(run0.at("events_per_sec").as_double(), 0.0);
  EXPECT_GT(run0.at("state_bytes").as_double(), 0.0);
  EXPECT_NE(run0.find("peak_rss_bytes"), nullptr);
}

TEST(ScaleAxis, StreamingMatrixIsBitIdenticalToMaterialized) {
  // The headline determinism claim behind streaming synthesis: the same
  // matrix — several algorithms, faults off — digests identically whether
  // traces are materialized up front or synthesized on demand.
  auto spec = tiny_spec();
  const auto materialized = run_matrix(spec);
  spec.stream_trace = true;
  const auto streamed = run_matrix(spec);

  ASSERT_EQ(materialized.trials.size(), streamed.trials.size());
  for (std::size_t i = 0; i < materialized.trials.size(); ++i) {
    EXPECT_EQ(materialized.trials[i].result.digest,
              streamed.trials[i].result.digest)
        << algo_name(materialized.trials[i].algo);
    EXPECT_EQ(materialized.trials[i].result.engine_events,
              streamed.trials[i].result.engine_events);
  }
  EXPECT_EQ(materialized.matrix_digest, streamed.matrix_digest);
  EXPECT_NE(materialized.matrix_digest, 0u);
}

TEST(ScaleAxis, StreamingIsBitIdenticalUnderFaults) {
  // The fault planner consumes the world's churn set; streaming worlds
  // hand it a bitmap instead of a materialized event span. Same plan,
  // same digests.
  auto spec = tiny_spec();
  spec.algos = {AlgoKind::kAsapRw};
  spec.fault_scenarios = {faults::FaultScenario{}, faults::fault_preset("churn")};
  const auto materialized = run_matrix(spec);
  spec.stream_trace = true;
  const auto streamed = run_matrix(spec);
  ASSERT_EQ(materialized.trials.size(), 2u);
  ASSERT_EQ(streamed.trials.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(materialized.trials[i].result.digest,
              streamed.trials[i].result.digest)
        << materialized.trials[i].scenario;
  }
  EXPECT_EQ(materialized.matrix_digest, streamed.matrix_digest);
}

TEST(ScaleAxis, StreamingWorldCarriesChurnBitmapNotEvents) {
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 3);
  shrink(cfg);
  cfg.stream_trace = true;
  const auto world = build_world(cfg);
  EXPECT_TRUE(world.streaming.enabled);
  EXPECT_TRUE(world.trace.events.empty());
  EXPECT_EQ(world.streaming.churned.size(), cfg.content.initial_nodes);
  EXPECT_GT(world.trace.num_queries, 0u);
  EXPECT_GT(world.trace.horizon, 0.0);
}

}  // namespace
}  // namespace asap::harness
