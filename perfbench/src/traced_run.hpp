// Traced replay: the benchmark's own copy of harness::build_world and
// harness::run_experiment, built only from the simulator's public types,
// with a span around every call into a layer.
//
// The copy must execute the identical simulation: its digest is compared
// with the untraced run_experiment digest on every traced benchmark run
// and in the self-test. Besides spans it reads the passive
// obs::RunObserver counters, AsapProtocol::counters(), the fault
// injector's report and the components' memory_bytes().
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metrics/load_series.hpp"
#include "metrics/search_stats.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct TracedResult {
  std::uint64_t digest = 0;
  std::uint32_t num_queries = 0;  ///< the trace's query count
  asap::metrics::SearchStats search;
  asap::metrics::LoadSummary load;
  double wall_s = 0.0;  ///< first span start to last span end
  /// Deterministic counts and ratios, keyed by per-layer metric name.
  std::vector<std::pair<std::string, double>> counts;
  /// Component memory_bytes() sums in MB (and the cached-ad count),
  /// keyed by metric name.
  std::vector<std::pair<std::string, double>> memory;
};

/// Builds the workload's world and replays it with spans recorded into
/// `spans`.
TracedResult run_traced(const Workload& w, SpanRecorder& spans);

}  // namespace perfbench
