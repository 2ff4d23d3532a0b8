// Golden replay: re-runs the spec a committed results.json records and
// diffs the fresh run against the file, so "did this change silently move
// a figure?" is a red test with a readable per-cell diff.
//
// Deterministic replays match the file exactly (the writer's doubles
// round-trip); the epsilon only absorbs text-formatting slack.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "harness/matrix_runner.hpp"

namespace asap::testing {

/// Parses a committed results.json.
inline json::Value load_results(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return json::parse(buf.str());
}

inline bool near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Replays `golden`'s recorded spec with run_matrix and checks the cell
/// count, every cell's digests, its metric names in order, every metric's
/// mean and stddev, and the matrix digest. Every failure message ends with
/// `refresh_hint`.
inline void expect_replay_matches(const json::Value& golden,
                                  const std::string& refresh_hint) {
  ASSERT_EQ(golden.at("schema").as_string(), "asap-matrix-results/1");
  const harness::MatrixResult actual =
      harness::run_matrix(harness::spec_from_json(golden));

  const auto& golden_cells = golden.at("cells").as_array();
  ASSERT_EQ(actual.cells.size(), golden_cells.size())
      << "cell count drifted from the baseline" << refresh_hint;

  for (std::size_t i = 0; i < golden_cells.size(); ++i) {
    const json::Value& want = golden_cells[i];
    const harness::CellAggregate& got = actual.cells[i];
    const std::string label = want.at("topology").as_string() + "/" +
                              want.at("faults").as_string() + "/" +
                              want.at("algo").as_string();
    EXPECT_EQ(harness::topology_name(got.topology),
              want.at("topology").as_string());
    EXPECT_EQ(got.scenario, want.at("faults").as_string());
    EXPECT_EQ(harness::algo_name(got.algo), want.at("algo").as_string());

    const auto& want_digests = want.at("digests").as_array();
    ASSERT_EQ(got.digests.size(), want_digests.size()) << label;
    for (std::size_t k = 0; k < want_digests.size(); ++k) {
      EXPECT_EQ(got.digests[k], want_digests[k].u64_hex())
          << label << " trial " << k << ": run digest drifted (golden "
          << want_digests[k].as_string() << ", actual "
          << json::hex_u64(got.digests[k])
          << ") — the simulation executes differently now" << refresh_hint;
    }

    // The same metric names in the same order: the gate pins the set.
    std::vector<std::string> want_names, got_names;
    for (const auto& [name, value] : want.at("metrics").as_object()) {
      want_names.push_back(name);
    }
    for (const auto& [name, summary] : got.metrics) got_names.push_back(name);
    ASSERT_EQ(got_names, want_names)
        << label << ": the metric list changed" << refresh_hint;

    const json::Value& want_metrics = want.at("metrics");
    for (const auto& [name, summary] : got.metrics) {
      const json::Value& want_metric = want_metrics.at(name);
      const double want_mean = want_metric.at("mean").as_double();
      EXPECT_TRUE(near(summary.mean, want_mean))
          << label << " " << name << ": golden mean " << want_mean
          << ", actual " << summary.mean << refresh_hint;
      const double want_sd = want_metric.at("stddev").as_double();
      EXPECT_TRUE(near(summary.stddev, want_sd))
          << label << " " << name << ": golden stddev " << want_sd
          << ", actual " << summary.stddev << refresh_hint;
    }
  }

  EXPECT_EQ(actual.matrix_digest, golden.at("matrix_digest").u64_hex())
      << "matrix digest drifted (golden "
      << golden.at("matrix_digest").as_string() << ", actual "
      << json::hex_u64(actual.matrix_digest) << ")" << refresh_hint;
}

}  // namespace asap::testing
