// Experiment configuration presets (paper §IV-A/B).
//
// Two presets:
//   * kSmall — ~5.2k physical nodes, 2,000 peers, 6,000 queries. Budgets
//     scale with the population so relative reach matches the paper-scale
//     setup. This is the default for benches on a laptop-class machine.
//   * kPaper — the paper's exact framework: 51,984 physical nodes, 10,000
//     peers, 30,000 queries, TTL 6 floods, 5x1024 walks, GSA budget 8,000,
//     ad budget unit M0 = 3,000, 1,000 joins + 1,000 leaves.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_config.hpp"
#include "net/transit_stub.hpp"
#include "sim/size_model.hpp"
#include "trace/content_model.hpp"
#include "trace/trace.hpp"

namespace asap::harness {

enum class Preset : std::uint8_t { kSmall, kPaper };

enum class TopologyKind : std::uint8_t { kRandom, kPowerlaw, kCrawled };

/// The paper's three overlay topologies (§IV-A), in report order.
inline constexpr TopologyKind kAllTopologies[] = {
    TopologyKind::kRandom, TopologyKind::kPowerlaw, TopologyKind::kCrawled};

const char* topology_name(TopologyKind t);
/// Inverse of topology_name(); nullopt for unknown names.
std::optional<TopologyKind> topology_from_name(std::string_view name);
/// Parses a comma-separated topology list ("crawled,random") in the given
/// order; "all" names kAllTopologies. Throws ConfigError on an unknown
/// name.
std::vector<TopologyKind> topologies_from_list(std::string_view list);

/// Splits a command-line list at its commas ("a,b" -> {"a", "b"}).
std::vector<std::string> split_list(std::string_view list);

/// Parses the count a command-line flag takes: decimal digits only, at
/// most `max`. Anything else ("-1", "12abc", a value past `max`) throws
/// ConfigError naming `flag`.
std::uint64_t parse_count(std::string_view flag, std::string_view text,
                          std::uint64_t max);

const char* preset_name(Preset p);
/// Inverse of preset_name(); nullopt for unknown names.
std::optional<Preset> preset_from_name(std::string_view name);

struct ExperimentConfig {
  Preset preset = Preset::kSmall;
  TopologyKind topology = TopologyKind::kCrawled;
  std::uint64_t seed = 42;

  net::TransitStubParams phys;
  trace::ContentModelParams content;
  trace::TraceParams trace;
  sim::SizeModel sizes;

  // Overlay shape (paper §IV-A).
  double random_avg_degree = 5.0;
  double powerlaw_avg_degree = 5.0;
  double powerlaw_alpha = 0.74;  // paper: alpha = -0.74
  double crawled_avg_degree = 3.35;
  std::uint32_t join_degree = 4;  // edges a joining node establishes

  /// Ads are disseminated for this long before the trace starts; the
  /// measurement window begins at `warmup`.
  Seconds warmup = 60.0;

  /// Fault-injection configuration (faults/fault_config.hpp). All-zero by
  /// default: no injector is built and runs stay bit-identical to the
  /// committed goldens. RunOptions::faults overrides this per run.
  faults::FaultConfig faults;

  /// Synthesize trace events on demand during the run instead of
  /// materializing the O(events) vector in the World. The event stream is
  /// bit-identical either way (tests/trace/streaming_trace_test.cpp);
  /// apply_scale turns this on automatically at >= 100k nodes.
  bool stream_trace = false;

  /// Node-count override applied by apply_scale (0 = preset default).
  /// Recorded so result JSON and matrix specs can round-trip the axis.
  std::uint32_t scale = 0;

  /// Re-dimensions this config for an `n`-node population (the --scale
  /// axis): initial nodes, joiner slots, physical network capacity, capped
  /// churn counts, and a keyword-pool size that keeps term selectivity
  /// comparable across scales. Leaves every other knob (budgets, rates,
  /// warm-up) at its preset value so small-scale behaviour is unchanged.
  void apply_scale(std::uint32_t n);

  static ExperimentConfig make(Preset preset, TopologyKind topology,
                               std::uint64_t seed = 42);
};

}  // namespace asap::harness
