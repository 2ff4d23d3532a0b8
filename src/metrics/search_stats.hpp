// Per-search outcome collection (paper §V-A).
//
// Success rate    = fraction of searches with at least one result,
// response time   = mean over *successful* searches of the time until the
//                   first result arrives,
// search cost     = mean bandwidth consumed by a search process (baselines:
//                   query messages only; ASAP: confirmation + ads-request
//                   traffic — §V-A).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace asap::metrics {

struct SearchRecord {
  bool success = false;
  Seconds response_time = 0.0;  // valid when success
  Bytes cost_bytes = 0;
  std::uint64_t messages = 0;
  bool local_hit = false;  // ASAP only: answered from the local ads cache
  /// Number of distinct positive results obtained (ASAP: positive
  /// confirmations; baselines: responding holders).
  std::uint32_t results = 0;
  /// Virtual time the query was issued; used only to attribute the search
  /// to the pre- or post-fault-onset window.
  Seconds issued_at = 0.0;
};

class SearchStats {
 public:
  void add(const SearchRecord& r);

  std::uint64_t total() const { return total_; }
  std::uint64_t successes() const { return successes_; }
  double success_rate() const;
  /// Mean response time over successful searches, seconds.
  double avg_response_time() const { return response_time_.mean(); }
  /// Mean bandwidth per search process, bytes.
  double avg_cost_bytes() const { return cost_.mean(); }
  double avg_messages() const { return messages_.mean(); }
  /// Fraction of searches resolved from the local ads cache (ASAP only).
  double local_hit_rate() const;
  /// Mean number of results per search (all searches).
  double avg_results() const { return results_.mean(); }

  /// Raw response-time samples (successful searches), for percentiles.
  const std::vector<double>& response_samples() const {
    return response_samples_;
  }
  /// Response-time percentile over successful searches (q in [0,1]).
  /// Defined for empty runs: 0.0 when no search succeeded, mirroring the
  /// other accessors, instead of tripping percentile()'s empty-set check.
  /// The samples are sorted lazily and the order is cached, so reading
  /// several quantiles (p50 + p95 per aggregation cell) sorts once
  /// instead of copying the sample vector per call.
  double response_percentile(double q) const;

  /// Marks the first fault-injection instant; searches issued at or after
  /// it are additionally tallied into the post-onset window below. Default
  /// +inf means no fault layer: the window stays empty.
  void set_fault_onset(Seconds t) { fault_onset_ = t; }
  std::uint64_t total_after_onset() const { return after_onset_total_; }
  std::uint64_t successes_after_onset() const {
    return after_onset_successes_;
  }
  /// Success rate over searches issued after fault onset (0 when none).
  double success_rate_after_onset() const;

 private:
  std::uint64_t total_ = 0;
  std::uint64_t successes_ = 0;
  std::uint64_t local_hits_ = 0;
  Seconds fault_onset_ = std::numeric_limits<Seconds>::infinity();
  std::uint64_t after_onset_total_ = 0;
  std::uint64_t after_onset_successes_ = 0;
  RunningStats response_time_;
  RunningStats cost_;
  RunningStats messages_;
  RunningStats results_;
  std::vector<double> response_samples_;
  /// Ascending-sorted view of response_samples_, rebuilt on demand after
  /// adds (empty = stale). Mutable: sorting is a cache fill, not a
  /// logical state change.
  mutable std::vector<double> sorted_samples_;
};

}  // namespace asap::metrics
