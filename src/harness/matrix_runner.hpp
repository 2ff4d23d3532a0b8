// Parallel experiment-matrix runner.
//
// Fans an (algorithm × topology × trial) matrix out across a ThreadPool.
// Every figure in the paper (§IV–V) is such a sweep; replaying it
// sequentially gates paper-scale reproduction on one core, while each cell
// is already a deterministic, single-threaded simulation — embarrassingly
// parallel by construction.
//
// Determinism contract: results are bit-identical for jobs=1 and jobs=N.
// Three properties make that hold and are locked down by tests:
//   * each trial owns its mutable state — run_experiment() builds a private
//     Engine, BandwidthLedger, Liveness and overlay copy per call, and
//     Worlds are immutable once built (cells of one trial share a const
//     World only);
//   * trial seeds derive from the master seed alone
//     (seed ^ trial_seed_salt(k), replay.hpp), never from schedule order;
//   * results land in pre-sized slots indexed by matrix position, so
//     completion order cannot reorder anything.
//
// The aggregate (mean ± stddev over trials, per headline metric) plus the
// per-trial digests serialize to results.json (schema:
// docs/RESULTS_SCHEMA.md); tests/support/golden_small.json is such a file,
// diffed by the golden-metrics regression gate.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"
#include "metrics/aggregate.hpp"

namespace asap::harness {

struct MatrixSpec {
  Preset preset = Preset::kSmall;
  std::vector<TopologyKind> topologies{TopologyKind::kCrawled};
  std::vector<AlgoKind> algos{std::begin(kAllAlgos), std::end(kAllAlgos)};
  /// Fault-scenario axis (faults/fault_config.hpp). The default single
  /// "none" scenario arms no injector, so legacy matrices (and their
  /// goldens) are exactly the one-scenario special case.
  std::vector<faults::FaultScenario> fault_scenarios{faults::FaultScenario{}};
  /// Master seed; trial k of every cell runs with seed ^ trial_seed_salt(k).
  std::uint64_t seed = 42;
  /// Independently-seeded repetitions per (algorithm × topology) cell.
  std::uint32_t trials = 1;
  /// Worker threads (0 = hardware concurrency, clamped >= 1 by
  /// ThreadPool). Never affects results.
  std::size_t jobs = 0;
  /// Override the preset's query count (0 = preset default).
  std::uint32_t queries = 0;
  /// Node-count override (0 = preset default). Non-zero re-dimensions
  /// every world via ExperimentConfig::apply_scale — the --scale axis.
  std::uint32_t scale = 0;
  /// Force on-demand trace synthesis even below the apply_scale threshold
  /// (streaming-vs-materialized digest-identity checks).
  bool stream_trace = false;
  /// Tri-state defense override (the --trust on|off CLI axis). Unset leaves
  /// every scenario's own defense knobs alone (legacy behaviour, and what
  /// absent results.json keys round-trip to). `on` forces trust scoring
  /// (plus the per-chain strike guard) across all fault-armed scenarios;
  /// `off` strips trust *and* overload protection, the defense-off control
  /// arm of the adversarial golden.
  std::optional<bool> trust;
  /// Options applied to every cell (audit, message_loss, seed_salt is
  /// reserved for the runner and must stay 0).
  RunOptions options;
  /// Per-algorithm options override; when set it wins over `options`.
  /// Used by the CLI to apply protocol-knob overrides per ASAP scheme.
  std::function<RunOptions(AlgoKind)> options_for;
  /// Arbitrary config post-processing (tests shrink worlds with this).
  /// Runs after the preset/queries are applied; not serializable, so specs
  /// carrying a tweak cannot be round-tripped through results.json.
  std::function<void(ExperimentConfig&)> tweak;
  /// Progress lines on stderr.
  bool verbose = false;
};

/// One completed trial. `world_seed` is the derived seed the trial's World
/// was built from.
struct TrialRun {
  TopologyKind topology{};
  AlgoKind algo{};
  std::string scenario;  ///< fault-scenario name ("none" when faults off)
  std::uint32_t trial = 0;
  std::uint64_t world_seed = 0;
  RunResult result;
};

/// One (topology × scenario × algorithm) cell aggregated over its trials.
struct CellAggregate {
  TopologyKind topology{};
  AlgoKind algo{};
  std::string scenario;
  std::uint32_t trials = 0;
  /// Per-trial run digests in trial order — the regression fingerprint.
  std::vector<std::uint64_t> digests;
  /// Headline metrics (headline_metrics() order), mean ± stddev over trials.
  std::vector<std::pair<std::string, metrics::MetricSummary>> metrics;
};

struct MatrixResult {
  MatrixSpec spec;
  /// Canonical order: topology-major, then scenario, then algorithm, then
  /// trial.
  std::vector<TrialRun> trials;
  std::vector<CellAggregate> cells;
  /// FNV-1a over every trial digest in canonical order: one number that
  /// pins the whole matrix down.
  std::uint64_t matrix_digest = 0;
  double wall_seconds = 0.0;
};

/// The scalar metrics a run is summarized by, in canonical report order.
/// Runs with the fault layer armed report additional fault metrics
/// (success_rate_under_churn, stale_evictions, …); faults-off runs keep
/// the legacy metric set exactly, so committed goldens stay comparable.
std::vector<std::pair<std::string, double>> headline_metrics(
    const RunResult& r);

/// Runs the full matrix. Total work is
/// |topologies| × |scenarios| × |algos| × trials cells plus
/// |topologies| × trials world builds, all scheduled on one pool.
MatrixResult run_matrix(const MatrixSpec& spec);

/// results.json document (schema docs/RESULTS_SCHEMA.md).
json::Value results_to_json(const MatrixResult& result);
void write_results_json(const MatrixResult& result, std::ostream& os);

/// Rebuilds the spec recorded in a results.json document (inverse of
/// results_to_json for the spec subset; jobs/verbose/tweak are not
/// recorded). Throws ConfigError on malformed or unknown-name input.
MatrixSpec spec_from_json(const json::Value& doc);

}  // namespace asap::harness
