// MatrixRunner contract: bit-identical results regardless of parallelism,
// canonical trial seeding, stable ordering, and a results.json that
// round-trips through the JSON module.
#include "harness/matrix_runner.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/error.hpp"
#include "common/json.hpp"

namespace asap::harness {
namespace {

/// Shrinks every world the spec builds to keep the suite fast; the runner
/// itself never sees preset-sized state in these tests.
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
  spec.algos = {AlgoKind::kFlooding, AlgoKind::kAsapRw};
  spec.seed = 7;
  spec.trials = 2;
  spec.tweak = shrink;
  return spec;
}

TEST(TrialSeedSalt, TrialZeroIsUnsalted) {
  EXPECT_EQ(trial_seed_salt(0), 0u);
}

TEST(TrialSeedSalt, LaterTrialsAreDistinct) {
  std::set<std::uint64_t> salts;
  for (std::uint32_t k = 0; k < 64; ++k) salts.insert(trial_seed_salt(k));
  EXPECT_EQ(salts.size(), 64u);
  // Stable across calls — this is a published derivation, not a cache.
  EXPECT_EQ(trial_seed_salt(3), trial_seed_salt(3));
}

TEST(MatrixRunner, JobsDoNotChangeAnyDigest) {
  auto spec = tiny_spec();
  spec.jobs = 1;
  const auto sequential = run_matrix(spec);
  spec.jobs = 4;
  const auto parallel = run_matrix(spec);

  ASSERT_EQ(sequential.trials.size(), parallel.trials.size());
  for (std::size_t i = 0; i < sequential.trials.size(); ++i) {
    const auto& a = sequential.trials[i];
    const auto& b = parallel.trials[i];
    EXPECT_EQ(a.result.digest, b.result.digest)
        << topology_name(a.topology) << '/' << algo_name(a.algo) << " trial "
        << a.trial;
    EXPECT_EQ(a.result.engine_events, b.result.engine_events);
  }
  EXPECT_EQ(sequential.matrix_digest, parallel.matrix_digest);
  EXPECT_NE(sequential.matrix_digest, 0u);
}

TEST(MatrixRunner, TrialZeroMatchesAPlainRun) {
  auto spec = tiny_spec();
  spec.trials = 1;
  spec.algos = {AlgoKind::kAsapRw};
  const auto matrix = run_matrix(spec);

  auto cfg = ExperimentConfig::make(spec.preset, TopologyKind::kCrawled,
                                    spec.seed);
  shrink(cfg);
  const auto plain = run_experiment(build_world(cfg), AlgoKind::kAsapRw);

  ASSERT_EQ(matrix.trials.size(), 1u);
  EXPECT_EQ(matrix.trials[0].world_seed, spec.seed);
  EXPECT_EQ(matrix.trials[0].result.digest, plain.digest)
      << "trial 0 must be the unsalted canonical run";
}

TEST(MatrixRunner, TrialsAreIndependentlySeeded) {
  auto spec = tiny_spec();
  spec.algos = {AlgoKind::kFlooding};
  spec.trials = 3;
  const auto result = run_matrix(spec);

  std::set<std::uint64_t> digests;
  for (const auto& run : result.trials) digests.insert(run.result.digest);
  EXPECT_EQ(digests.size(), 3u) << "trials must not repeat each other";
}

TEST(MatrixRunner, CanonicalOrderingAndAggregates) {
  const auto result = run_matrix(tiny_spec());

  ASSERT_EQ(result.trials.size(), 4u);  // 1 topo x 2 algos x 2 trials
  EXPECT_EQ(result.trials[0].algo, AlgoKind::kFlooding);
  EXPECT_EQ(result.trials[0].trial, 0u);
  EXPECT_EQ(result.trials[1].algo, AlgoKind::kFlooding);
  EXPECT_EQ(result.trials[1].trial, 1u);
  EXPECT_EQ(result.trials[2].algo, AlgoKind::kAsapRw);
  EXPECT_EQ(result.trials[3].trial, 1u);

  ASSERT_EQ(result.cells.size(), 2u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.trials, 2u);
    ASSERT_EQ(cell.digests.size(), 2u);
    ASSERT_FALSE(cell.metrics.empty());
    for (const auto& [name, summary] : cell.metrics) {
      EXPECT_EQ(summary.count, 2u) << name;
      EXPECT_LE(summary.min, summary.mean) << name;
      EXPECT_LE(summary.mean, summary.max) << name;
      EXPECT_GE(summary.stddev, 0.0) << name;
    }
  }
  // Cell digests mirror the trial slots.
  EXPECT_EQ(result.cells[0].digests[1], result.trials[1].result.digest);
}

TEST(MatrixRunner, ResultsJsonRoundTripsTheSpec) {
  auto spec = tiny_spec();
  spec.queries = 200;
  spec.options.message_loss = 0.05;
  spec.options.audit = true;
  const auto result = run_matrix(spec);

  const auto doc = json::parse(json::dump(results_to_json(result)));
  EXPECT_EQ(doc.at("schema").as_string(), "asap-matrix-results/1");
  EXPECT_EQ(doc.at("matrix_digest").u64_hex(), result.matrix_digest);

  const auto parsed = spec_from_json(doc);
  EXPECT_EQ(parsed.preset, spec.preset);
  EXPECT_EQ(parsed.topologies, spec.topologies);
  EXPECT_EQ(parsed.algos, spec.algos);
  EXPECT_EQ(parsed.seed, spec.seed);
  EXPECT_EQ(parsed.trials, spec.trials);
  EXPECT_EQ(parsed.queries, spec.queries);
  EXPECT_DOUBLE_EQ(parsed.options.message_loss, spec.options.message_loss);
  EXPECT_TRUE(parsed.options.audit);

  const auto& cells = doc.at("cells").as_array();
  ASSERT_EQ(cells.size(), result.cells.size());
  EXPECT_EQ(cells[0].at("digests").as_array()[0].u64_hex(),
            result.cells[0].digests[0]);
  // Audited runs must have come back clean.
  for (const auto& run : result.trials) {
    EXPECT_TRUE(run.result.audited);
    EXPECT_EQ(run.result.audit_violations, 0u);
  }
}

TEST(MatrixRunner, SpecCountsMustBeUint32Integers) {
  // The writer's own spec (every key present), with one count replaced.
  const auto spec_with = [](const char* key, double value) {
    json::Value doc = results_to_json(MatrixResult{});
    for (auto& [k, spec] : doc.as_object()) {
      if (k != "spec") continue;
      for (auto& [field, v] : spec.as_object()) {
        if (field == key) v = value;
      }
    }
    return doc;
  };
  for (const char* key : {"trials", "queries", "scale"}) {
    for (const double bad : {-1.0, 2.5, 1e30, 4294967296.0}) {
      try {
        spec_from_json(spec_with(key, bad));
        ADD_FAILURE() << key << " = " << bad << " was accepted";
      } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << "error does not name the key: " << e.what();
      }
    }
  }
  EXPECT_EQ(spec_from_json(spec_with("queries", 4294967295.0)).queries,
            4294967295u);
}

TEST(MatrixRunner, EveryRunReportsTheSameMetrics) {
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 7);
  shrink(cfg);
  const World world = build_world(cfg);
  const auto run = [&](AlgoKind algo, const char* scenario) {
    RunOptions opts;
    if (scenario != nullptr) {
      opts.faults = faults::fault_preset(scenario).config;
    }
    return headline_metrics(run_experiment(world, algo, opts));
  };
  const auto value = [](const auto& metrics, const char* name) {
    for (const auto& [k, v] : metrics) {
      if (k == name) return v;
    }
    ADD_FAILURE() << "no metric " << name;
    return -1.0;
  };

  const auto flooding = run(AlgoKind::kFlooding, nullptr);
  const auto asap_rw = run(AlgoKind::kAsapRw, nullptr);
  const auto delta = run(AlgoKind::kAsapDelta, nullptr);
  const auto churn = run(AlgoKind::kAsapRw, "churn");
  const auto byzantine = run(AlgoKind::kAsapRw, "byzantine");
  ASSERT_EQ(flooding.size(), 32u);
  for (const auto* other : {&asap_rw, &delta, &churn, &byzantine}) {
    ASSERT_EQ(other->size(), flooding.size());
    for (std::size_t i = 0; i < flooding.size(); ++i) {
      EXPECT_EQ((*other)[i].first, flooding[i].first) << "metric " << i;
    }
  }

  // Nothing to count reads 0: flooding sends no ads, and no search falls
  // after a fault onset when no injector is armed.
  EXPECT_EQ(value(flooding, "ad_bytes_total"), 0.0);
  for (const auto* faults_off : {&flooding, &asap_rw, &delta}) {
    EXPECT_EQ(value(*faults_off, "queries_under_churn"), 0.0);
  }
  EXPECT_GT(value(asap_rw, "ad_bytes_total"), 0.0);
  EXPECT_EQ(value(asap_rw, "ad_rounds"), 0.0);
  EXPECT_GT(value(delta, "ad_rounds"), 0.0);
  EXPECT_GT(value(churn, "queries_under_churn"), 0.0);
  EXPECT_GT(value(byzantine, "storm_queries"), 0.0);
}

TEST(ParseCount, AcceptsDigitsWithinRangeOnly) {
  EXPECT_EQ(parse_count("--queries", "0", 10), 0u);
  EXPECT_EQ(parse_count("--queries", "4294967295", 4294967295u),
            4294967295u);
  EXPECT_EQ(parse_count("--seed", "18446744073709551615",
                        std::numeric_limits<std::uint64_t>::max()),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "12abc", "0x10", "1e3",
                          "4294967296", "99999999999999999999"}) {
    try {
      parse_count("--queries", bad, 4294967295u);
      ADD_FAILURE() << "'" << bad << "' was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("--queries"), std::string::npos)
          << "error does not name the flag: " << e.what();
    }
  }
}

TEST(MatrixRunner, RejectsDegenerateSpecs) {
  auto spec = tiny_spec();
  spec.trials = 0;
  EXPECT_THROW(run_matrix(spec), ConfigError);
  spec = tiny_spec();
  spec.algos.clear();
  EXPECT_THROW(run_matrix(spec), ConfigError);
  spec = tiny_spec();
  spec.topologies.clear();
  EXPECT_THROW(run_matrix(spec), ConfigError);
}

}  // namespace
}  // namespace asap::harness
