// Trace replay: runs one system under test against a World and reduces
// the paper's metrics, through one loop for every protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asap/asap_protocol.hpp"
#include "faults/fault_config.hpp"
#include "harness/world.hpp"
#include "metrics/load_series.hpp"
#include "metrics/search_stats.hpp"
#include "obs/observer.hpp"
#include "obs/profiler.hpp"
#include "search/baseline.hpp"
#include "sim/audit.hpp"
#include "sim/bandwidth.hpp"
#include "sim/engine.hpp"

namespace asap::harness {

/// The six systems evaluated in the paper (§IV-A), plus the adaptive
/// advertisement-scheduling extensions (RW scheme, ads::AdMode).
enum class AlgoKind : std::uint8_t {
  kFlooding,
  kRandomWalk,
  kGsa,
  kAsapFld,
  kAsapRw,
  kAsapGsa,
  kAsapAdaptive,  ///< ASAP(RW) + byte-budgeted packed ad rounds
  kAsapDelta,     ///< kAsapAdaptive with delta ads against the last full ad
};

/// The paper's six systems — the canonical matrix axis. The adaptive
/// extensions are deliberately *not* here: `--algo all`, the golden
/// matrices and the fault matrix stay pinned to the paper's set.
inline constexpr AlgoKind kAllAlgos[] = {
    AlgoKind::kFlooding, AlgoKind::kRandomWalk, AlgoKind::kGsa,
    AlgoKind::kAsapFld,  AlgoKind::kAsapRw,     AlgoKind::kAsapGsa,
};

/// Every runnable algorithm, including the adaptive extensions (name
/// lookup, explicit CLI selection).
inline constexpr AlgoKind kExtendedAlgos[] = {
    AlgoKind::kFlooding, AlgoKind::kRandomWalk,   AlgoKind::kGsa,
    AlgoKind::kAsapFld,  AlgoKind::kAsapRw,       AlgoKind::kAsapGsa,
    AlgoKind::kAsapAdaptive, AlgoKind::kAsapDelta,
};

const char* algo_name(AlgoKind k);
/// Inverse of algo_name(); nullopt for unknown names.
std::optional<AlgoKind> algo_from_name(std::string_view name);
bool is_asap(AlgoKind k);

/// The one derivation of "trial k of master seed s", used by run_matrix
/// and so by asap_sim and the figure benches:
///
///   world seed of trial k  =  s ^ trial_seed_salt(k)
///
/// The world seed re-derives the whole world and, from it, the algorithm,
/// churn and fault streams. trial_seed_salt(0) == 0, so trial 0 is the
/// run with seed s itself; later trials mix splitmix64(k) so neighbouring
/// indices land in uncorrelated streams.
std::uint64_t trial_seed_salt(std::uint32_t trial);

/// Traffic categories that count toward system load for this algorithm:
/// the load_categories() of the protocol run_experiment builds for it.
std::vector<sim::Traffic> load_categories(AlgoKind k);

struct RunOptions {
  /// Override the preset-derived parameters of the built-in systems
  /// (ablation benches). A run from a ProtocolFactory ignores them.
  std::optional<search::BaselineParams> baseline;
  std::optional<ads::AsapParams> asap;
  /// Failure injection: probability any overlay transmission is lost, in
  /// [0, 1]. 1.0 is a valid (total-blackout) setting: senders still pay
  /// for every attempt, so runs terminate and audit clean.
  double message_loss = 0.0;
  /// Deterministic fault injection (faults/fault_config.hpp). When set it
  /// overrides ExperimentConfig::faults and forces the injector on even if
  /// every rate is zero — the determinism guard relies on an armed
  /// zero-rate injector leaving digests bit-identical.
  std::optional<faults::FaultConfig> faults;
  /// Run-time invariant auditing (sim/audit.hpp). Defaults to on when the
  /// build was configured with -DASAP_AUDIT=ON.
  bool audit = sim::kAuditDefaultOn;
  /// Passive observability sink (obs/observer.hpp): trace spans, counter
  /// snapshots. One observer serves one run — run_experiment finalizes it
  /// at the horizon. Guaranteed not to perturb the simulation: the run
  /// digest is bit-identical with and without an observer attached
  /// (enforced by tests/harness/observability_test.cpp, tier 1).
  obs::RunObserver* observer = nullptr;
};

/// What the fault layer did to one run (all zero when disabled).
struct FaultSummary {
  bool enabled = false;
  std::uint64_t crashes = 0;
  std::uint64_t partitions = 0;
  std::uint64_t bursts = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t burst_drops = 0;
  std::uint64_t partition_drops = 0;
  /// Transmissions paid for to crashed-but-undetected nodes.
  std::uint64_t dead_sends = 0;
  /// First fault instant (+inf when the plan is empty). The searches
  /// issued at or after it are SearchStats' *_after_onset() counts.
  Seconds first_fault_time = 0.0;
  /// Seeded Byzantine roster sizes (from the plan).
  std::uint64_t polluters = 0;
  std::uint64_t stale_advertisers = 0;
  std::uint64_t confirm_droppers = 0;
  /// Flash-crowd schedule: windows planned and synthetic queries injected.
  std::uint64_t storms = 0;
  std::uint64_t storm_queries = 0;
};

struct RunResult {
  /// The name() of the protocol that ran, e.g. "sp-asap(rw)" for the
  /// superpeer placement or "asap-delta(rw)". results.json, run_matrix's
  /// progress lines and every asap_sim output name a run by
  /// algo_name(AlgoKind) instead, the --algo key.
  std::string algo;
  metrics::SearchStats search;
  metrics::LoadSummary load;
  /// Ad + search traffic shares over the measurement window (Fig 7).
  std::vector<metrics::CategoryShare> breakdown;
  /// ASAP event counters (empty-initialized for baselines).
  ads::AsapProtocol::Counters asap_counters;
  /// Advertisement bytes over the measurement window: all ad categories
  /// (full + patch + refresh + packed), and the packed-frame share alone.
  Bytes ad_bytes_total = 0;
  Bytes ad_bytes_packed = 0;
  Seconds measure_start = 0.0;
  Seconds measure_end = 0.0;
  std::uint64_t engine_events = 0;
  double wall_seconds = 0.0;
  /// Simulator throughput over the whole run (engine events per wall
  /// second; 0 when the wall clock reads 0).
  double events_per_sec = 0.0;
  /// Heap bytes of per-node protocol state at the end of the run
  /// (SearchAlgorithm::state_bytes; 0 for stateless baselines).
  std::uint64_t state_bytes = 0;
  /// Process peak RSS (high-water mark) sampled at the end of the run, in
  /// bytes. Monotone across a process's runs — meaningful for a dedicated
  /// bench process, indicative only inside a long matrix sweep.
  std::uint64_t peak_rss_bytes = 0;
  /// Wall-clock phase breakdown (warm-up dissemination, query replay,
  /// reduce). The matrix runner prepends its world-build phase. Wall time
  /// is measured, never fed back into the simulation, so determinism is
  /// unaffected.
  std::vector<obs::PhaseProfile> profile;
  /// FNV-1a digest of the executed event stream and every ledger deposit
  /// (sim/audit.hpp); bit-identical across runs of the same World + seed.
  std::uint64_t digest = 0;
  /// Invariant audit outcome (only populated when opts.audit was set).
  bool audited = false;
  std::uint64_t audit_violations = 0;
  std::vector<std::string> audit_messages;  // first few violations
  /// Fault-layer outcome (enabled only when an injector was armed).
  FaultSummary faults;
};

/// Default parameters for an algorithm under the given preset.
search::BaselineParams default_baseline_params(AlgoKind k, Preset preset);
ads::AsapParams default_asap_params(AlgoKind k, Preset preset);

/// Builds a run's protocol against its context; called once, with the
/// auditor, observer and fault injector in place, before warm-up.
using ProtocolFactory =
    std::function<std::unique_ptr<search::SearchAlgorithm>(search::Ctx&)>;

/// Replays the world's trace against the protocol `make` builds: per-run
/// state, faults, audit and observer, the trace loop and the reduce.
RunResult run_experiment(const World& world, const ProtocolFactory& make,
                         const RunOptions& opts = {});

/// Replays the world's trace against one built-in system: BaselineSearch,
/// or AsapProtocol with the fault config's hardening and defense knobs.
RunResult run_experiment(const World& world, AlgoKind kind,
                         const RunOptions& opts = {});

}  // namespace asap::harness
