// PlanetP-style globally gossiped index (Cuenca-Acuna et al. [8]) — the
// Related-Work comparator the paper singles out: "PlanetP employs a
// gossiping layer to globally replicate a membership directory and content
// indices. While the search performance was reported promising, the system
// load tends to be high due to the global gossiping."
//
// Model: every content filter update is epidemically replicated to every
// live peer. An update published at time t becomes visible system-wide by
// t + D where D ~ log2(N) gossip rounds, and costs N * redundancy
// transmissions of the (compressed) filter — the defining property is
// that *everyone* pays for *every* update, regardless of interest. A
// search is then a purely local directory lookup plus the usual one-hop
// confirmation.
//
// The directory is modeled as a single replicated structure with
// per-update visibility times rather than N physical copies; this is
// exact for search semantics (all replicas converge identically) and
// keeps memory O(sources).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bloom/bloom.hpp"
#include "search/algorithm.hpp"
#include "search/context.hpp"

namespace asap::search {

struct GossipParams {
  /// Gossip round period; an update is fully replicated after
  /// ceil(log2(live peers)) rounds.
  Seconds round_period = 5.0;
  /// Epidemic redundancy: total transmissions per update ~ N * redundancy.
  double redundancy = 1.5;
  std::uint32_t max_confirms = 8;
};

class GossipIndexSearch final : public SearchAlgorithm {
 public:
  GossipIndexSearch(Ctx& ctx, GossipParams params);

  /// The epidemic filter replication and the confirmations it triggers.
  static constexpr sim::Traffic kLoadCategories[] = {sim::Traffic::kFullAd,
                                                     sim::Traffic::kConfirm};

  std::string name() const override { return "gossip(planetp)"; }
  std::span<const sim::Traffic> load_categories() const override {
    return kLoadCategories;
  }
  void warm_up(Seconds duration) override;
  void on_trace_event(const trace::TraceEvent& event) override;

  std::size_t directory_size() const { return directory_.size(); }

 private:
  struct Entry {
    std::shared_ptr<const bloom::BloomFilter> filter;
    Seconds visible_at = 0.0;  // globally replicated by this time
  };

  /// Publishes node n's current filter at `when`, paying the epidemic
  /// replication cost.
  void publish(NodeId n, Seconds when);
  void run_query(const trace::TraceEvent& ev);
  Seconds replication_delay() const;

  Ctx& ctx_;
  GossipParams params_;
  std::vector<bloom::CountingBloomFilter> filters_;  // per-node live filter
  std::vector<std::uint8_t> has_filter_;
  std::unordered_map<NodeId, Entry> directory_;
  std::vector<NodeId> sources_;  // directory keys, for iteration order
};

}  // namespace asap::search
