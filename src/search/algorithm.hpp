// Common interface all systems under test implement.
//
// The harness replays the trace: for every event it first updates the
// shared world state (overlay churn, live content, ground-truth index),
// then hands the event to the algorithm. Baselines only act on queries;
// ASAP also reacts to joins (advertise + warm its cache), content changes
// (patch ads) and timers.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "metrics/search_stats.hpp"
#include "sim/bandwidth.hpp"
#include "trace/trace.hpp"

namespace asap::search {

class SearchAlgorithm {
 public:
  virtual ~SearchAlgorithm() = default;

  virtual std::string name() const = 0;

  /// Called once before the trace starts, at virtual time 0; the
  /// measurement window begins after `warmup_duration` seconds.
  virtual void warm_up(Seconds /*warmup_duration*/) {}

  /// Called for every trace event, after world state has been updated.
  virtual void on_trace_event(const trace::TraceEvent& event) = 0;

  /// Heap bytes of per-node protocol state (ad caches, advertiser filters,
  /// timers) the algorithm owns right now. Stateless baselines report 0.
  /// Read by the harness for the scale-bench bytes/node accounting.
  virtual std::uint64_t state_bytes() const { return 0; }

  /// Traffic categories that count toward this protocol's system load
  /// (paper §V-B). The harness reduces load and the Fig 7 breakdown over
  /// exactly these.
  virtual std::span<const sim::Traffic> load_categories() const = 0;

  metrics::SearchStats& stats() { return stats_; }
  const metrics::SearchStats& stats() const { return stats_; }

  /// Tells the stats collector when the first fault fires so searches can
  /// be attributed to the pre-/post-onset windows. Harness-only plumbing —
  /// algorithms themselves never read it.
  void set_fault_onset(Seconds t) { stats_.set_fault_onset(t); }

  /// Runs one *synthetic* query (flash-crowd storm injection): the query
  /// executes the full protocol path — it costs bandwidth, occupies
  /// pending-queue slots and can be shed — but it is excluded from
  /// SearchStats, so success/latency metrics keep measuring the legitimate
  /// workload only. The event must be a kQuery.
  void inject_synthetic_query(const trace::TraceEvent& event) {
    synthetic_depth_ = true;
    on_trace_event(event);
    synthetic_depth_ = false;
  }

 protected:
  /// True while the event being processed is storm-injected; protocols
  /// consult this before recording a SearchRecord.
  bool synthetic_query() const { return synthetic_depth_; }

  metrics::SearchStats stats_;

 private:
  bool synthetic_depth_ = false;
};

}  // namespace asap::search
