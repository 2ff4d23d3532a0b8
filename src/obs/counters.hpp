// Counter registry for the observability layer.
//
// Two counter families, both plain uint64 tallies:
//
//  * per traffic category (sim::Traffic): ledger deposits and bytes, plus
//    message drops split by cause — TTL expiry, transmission loss,
//    duplicate suppression, offline (liveness) skips;
//  * per node: advertisement-cache outcomes (ads stored / evicted /
//    invalidated) and confirmation round-trip outcomes (confirms sent /
//    positive / timed out). Global totals are kept alongside so snapshots
//    do not have to walk every node.
//
// The registry is passive storage — it never touches simulation state —
// and everything here is deterministic given a deterministic run.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"
#include "sim/bandwidth.hpp"

namespace asap::obs {

/// Tallies for one traffic category.
struct CategoryCounters {
  std::uint64_t deposits = 0;  ///< ledger deposits (messages / chunks)
  std::uint64_t bytes = 0;
  std::uint64_t drops_ttl = 0;
  std::uint64_t drops_loss = 0;
  std::uint64_t drops_duplicate = 0;
  std::uint64_t drops_offline = 0;
  /// Paid-for sends to crashed-but-undetected nodes (fault layer).
  std::uint64_t drops_dead = 0;

  bool any() const {
    return (deposits | bytes | drops_ttl | drops_loss | drops_duplicate |
            drops_offline | drops_dead) != 0;
  }
};

/// Per-node protocol tallies (ASAP family only; baselines keep no caches
/// and send no confirmations, so their rows stay zero).
struct NodeCounters {
  std::uint64_t ads_stored = 0;
  std::uint64_t ads_evicted = 0;
  std::uint64_t ads_invalidated = 0;
  std::uint64_t confirms_sent = 0;
  std::uint64_t confirms_positive = 0;
  std::uint64_t confirms_timed_out = 0;
  /// Confirm retry attempts (fault-hardening; 0 unless retries are on).
  std::uint64_t confirm_retries = 0;
  /// Ads evicted as stale after consecutive confirm timeouts.
  std::uint64_t stale_evictions = 0;
  /// Trust strikes recorded at this cacher (defense layer; 0 unless
  /// trust scoring is on).
  std::uint64_t trust_strikes = 0;
  /// Sources this cacher pushed into quarantine.
  std::uint64_t quarantines = 0;
  /// Queries shed at this node by overload protection.
  std::uint64_t queries_shed = 0;

  bool any() const {
    return (ads_stored | ads_evicted | ads_invalidated | confirms_sent |
            confirms_positive | confirms_timed_out | confirm_retries |
            stale_evictions | trust_strikes | quarantines | queries_shed) !=
           0;
  }
};

class CounterRegistry {
 public:
  void count_deposit(sim::Traffic category, Bytes bytes) {
    auto& c = categories_[static_cast<std::size_t>(category)];
    ++c.deposits;
    c.bytes += bytes;
  }
  void count_drop_ttl(sim::Traffic category) {
    ++categories_[static_cast<std::size_t>(category)].drops_ttl;
  }
  void count_drop_loss(sim::Traffic category) {
    ++categories_[static_cast<std::size_t>(category)].drops_loss;
  }
  void count_drop_duplicate(sim::Traffic category) {
    ++categories_[static_cast<std::size_t>(category)].drops_duplicate;
  }
  void count_drop_offline(sim::Traffic category) {
    ++categories_[static_cast<std::size_t>(category)].drops_offline;
  }
  void count_drop_dead(sim::Traffic category) {
    ++categories_[static_cast<std::size_t>(category)].drops_dead;
  }

  void count_ad_stored(NodeId node) {
    ++node_row(node).ads_stored;
    ++totals_.ads_stored;
  }
  void count_ad_evicted(NodeId node) {
    ++node_row(node).ads_evicted;
    ++totals_.ads_evicted;
  }
  void count_ad_invalidated(NodeId node) {
    ++node_row(node).ads_invalidated;
    ++totals_.ads_invalidated;
  }
  void count_confirm_sent(NodeId node) {
    ++node_row(node).confirms_sent;
    ++totals_.confirms_sent;
  }
  void count_confirm_positive(NodeId node) {
    ++node_row(node).confirms_positive;
    ++totals_.confirms_positive;
  }
  void count_confirm_timed_out(NodeId node) {
    ++node_row(node).confirms_timed_out;
    ++totals_.confirms_timed_out;
  }
  void count_confirm_retry(NodeId node) {
    ++node_row(node).confirm_retries;
    ++totals_.confirm_retries;
  }
  void count_stale_evicted(NodeId node) {
    ++node_row(node).stale_evictions;
    ++totals_.stale_evictions;
  }
  void count_trust_strike(NodeId node) {
    ++node_row(node).trust_strikes;
    ++totals_.trust_strikes;
  }
  void count_quarantine_enter(NodeId node) {
    ++node_row(node).quarantines;
    ++totals_.quarantines;
  }
  void count_query_shed(NodeId node) {
    ++node_row(node).queries_shed;
    ++totals_.queries_shed;
  }
  void count_fault_injected() { ++faults_injected_; }

  const CategoryCounters& category(sim::Traffic t) const {
    return categories_[static_cast<std::size_t>(t)];
  }
  const NodeCounters& totals() const { return totals_; }
  /// Per-node rows; only nodes touched by a counted event have rows.
  const std::vector<NodeCounters>& nodes() const { return per_node_; }

  /// Cumulative snapshot as a JSON object: per-category tallies (zero-only
  /// categories elided) plus the global ad/confirm totals.
  json::Object snapshot() const;

  /// Per-node JSON rows for nodes with at least one nonzero counter.
  json::Array node_rows() const;

 private:
  NodeCounters& node_row(NodeId node) {
    if (per_node_.size() <= static_cast<std::size_t>(node)) {
      per_node_.resize(static_cast<std::size_t>(node) + 1);
    }
    return per_node_[static_cast<std::size_t>(node)];
  }

  std::array<CategoryCounters, sim::kTrafficCount> categories_{};
  NodeCounters totals_{};
  std::uint64_t faults_injected_ = 0;
  std::vector<NodeCounters> per_node_;
};

}  // namespace asap::obs
