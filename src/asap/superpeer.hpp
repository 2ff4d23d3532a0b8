// Hierarchical (superpeer) ASAP — the deployment mode of the paper's
// footnote 3: "ASAP can work well on hierarchical systems in which only
// super peers are responsible for ad representation, delivery, caching and
// processing."
//
// A fraction of well-connected peers act as superpeers; every leaf is
// assigned to a *proxy* superpeer. Leaves upload their ads (full, patch,
// refresh) to their proxy over one hop; the proxy disseminates them across
// the superpeer mesh, where all caching happens. A leaf's search is a
// query to its proxy, which answers from its ads cache (falling back to an
// ads request among its superpeer neighbors); the leaf then confirms with
// the content source directly.
//
// Compared with flat ASAP: far fewer caches (memory concentrates on
// capable nodes), smaller dissemination graph (cheaper deliveries), at the
// price of one extra proxy round trip per search and reliance on
// superpeer availability.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "asap/ad.hpp"
#include "asap/ad_cache.hpp"
#include "asap/ad_scheduler.hpp"
#include "asap/advertiser.hpp"
#include "asap/asap_protocol.hpp"
#include "overlay/overlay.hpp"
#include "search/algorithm.hpp"
#include "search/baseline.hpp"
#include "search/context.hpp"

namespace asap::ads {

struct SuperpeerParams {
  /// Ad forwarding scheme across the superpeer mesh.
  search::Scheme scheme = search::Scheme::kRandomWalk;
  /// Fraction of (initial) peers promoted to superpeers, picked by degree.
  double superpeer_fraction = 0.15;
  std::uint32_t flood_ttl = 6;
  std::uint32_t walkers = 5;
  /// Budget unit per topic, applied to the superpeer mesh (which is ~6x
  /// smaller than the full overlay, so the default is scaled accordingly).
  std::uint64_t budget_unit_m0 = 450;
  double join_budget_scale = 0.05;
  double patch_budget_scale = 0.25;
  double refresh_budget_scale = 0.08;
  Seconds refresh_period = 120.0;
  std::uint32_t ads_request_hops = 1;
  std::uint32_t ads_reply_max = 16;
  std::uint32_t ads_reply_topical_max = 8;
  std::uint32_t cache_capacity = 4'000;  // superpeers are capable nodes
  std::uint32_t max_confirms = 8;
  std::uint64_t max_walk_hops = 600;

  // --- adaptive advertisement scheduling (kVanilla = legacy) ------------
  /// kAdaptive / kDelta batch mesh disseminations into per-superpeer
  /// byte-budgeted packed ad rounds: uploads still reach the proxy (and
  /// its cache) immediately, but the mesh spread waits for the proxy's
  /// next round, where an AdScheduler rotates one pending ad per source
  /// into a single packed frame. Exercises true multi-ad rotation,
  /// packing and budget spill (the flat protocol only rotates two items).
  AdMode ad_mode = AdMode::kVanilla;
  Bytes ad_round_budget = 1'200;
  std::uint32_t ad_stable_after = 2;
  std::uint32_t ad_very_stable_after = 4;
  /// Packed-round period per superpeer (with +-50% jitter).
  Seconds ad_round_period = 120.0;

  // --- adversarial defense (all off by default; DESIGN.md §16) -----------
  /// Per-source trust scores on the proxy caches: confirmed hits reward,
  /// false positives / timeouts strike, low-trust sources are quarantined
  /// with exponential re-admit backoff. Same model as AsapParams.
  bool trust_enabled = false;
  double trust_reward = 0.3;
  double trust_strike_decay = 0.5;
  double trust_quarantine_threshold = 0.2;
  double trust_quarantine_backoff = 120.0;
  /// Ad-admission fill-plausibility gate on the proxy caches; 0 = off.
  double trust_fill_gate = 0.0;
  /// Overload protection at the proxy (the hierarchy's congestion point):
  /// cap on concurrently pending queries per superpeer (0 = unbounded) and
  /// the depth at which the mesh-widening phase is suppressed (0 = never).
  std::uint32_t pending_query_cap = 0;
  std::uint32_t ttl_clamp_depth = 0;

  static SuperpeerParams small(search::Scheme s);
};

class SuperpeerAsap final : public search::SearchAlgorithm {
 public:
  SuperpeerAsap(search::Ctx& ctx, SuperpeerParams params);

  std::string name() const override;
  void warm_up(Seconds duration) override;
  void on_trace_event(const trace::TraceEvent& event) override;
  std::uint64_t state_bytes() const override;

  bool is_superpeer(NodeId n) const { return is_superpeer_[n]; }
  NodeId proxy_of(NodeId n) const { return proxy_[n]; }
  std::uint32_t num_superpeers() const { return num_superpeers_; }
  const AdCache& cache(NodeId sp) const { return caches_[sp]; }
  /// Total cache entries across all superpeers (memory footprint probe).
  std::uint64_t total_cached_ads() const;

  struct Counters {
    std::uint64_t full_ads = 0;
    std::uint64_t patch_ads = 0;
    std::uint64_t refresh_ads = 0;
    std::uint64_t delta_ads = 0;
    std::uint64_t proxy_uploads = 0;   // leaf -> proxy ad transfers
    std::uint64_t proxy_queries = 0;   // leaf -> proxy search requests
    std::uint64_t ads_requests = 0;
    std::uint64_t confirm_requests = 0;
    // Adaptive-scheduling telemetry (all zero in vanilla mode).
    std::uint64_t ad_rounds = 0;
    std::uint64_t packed_frames = 0;
    std::uint64_t packed_entries = 0;
    std::uint64_t spilled_entries = 0;
    // Adversary / defense telemetry (all zero without faults / defenses).
    std::uint64_t polluted_ads = 0;
    std::uint64_t forced_negatives = 0;
    std::uint64_t dropped_confirms = 0;
    std::uint64_t trust_strikes = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t readmissions = 0;
    std::uint64_t queries_shed = 0;
    std::uint64_t ttl_clamped = 0;
    std::uint64_t peak_pending_depth = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  void build_hierarchy();
  /// Picks (or re-picks) a proxy for node n; returns kInvalidNode if no
  /// superpeer is reachable/online.
  NodeId assign_proxy(NodeId n);

  std::uint64_t delivery_budget(std::size_t topics, double scale) const;

  /// Leaf (or superpeer) publishes an ad: pays the one-hop upload if the
  /// source is a leaf, then disseminates across the superpeer mesh.
  void publish(NodeId source, AdKind kind, Seconds when, double scale,
               const AdPayloadPtr& payload,
               std::span<const std::uint32_t> patch, std::uint32_t base);

  void on_join(const trace::TraceEvent& ev);
  void on_content_change(const trace::TraceEvent& ev);
  void run_query(const trace::TraceEvent& ev);

  Seconds confirm_round(NodeId requester, NodeId sp, Seconds start,
                        std::span<const KeywordId> terms,
                        std::span<const AdPayloadPtr> candidates,
                        metrics::SearchRecord& rec, Seconds& resolve);
  Seconds ads_request_phase(NodeId sp, Seconds start,
                            const bloom::HashedQuery& query,
                            metrics::SearchRecord* rec,
                            std::vector<AdPayloadPtr>& matches_out);

  void schedule_refresh(NodeId n);
  void on_refresh_timer(NodeId n);

  // --- adversarial roles / defenses -------------------------------------
  bool is_polluter(NodeId n) const;
  /// Stuffs deterministic phantom bits into a polluter's full ad (copy;
  /// the advertiser's canonical payload is never touched).
  AdPayloadPtr maybe_pollute(NodeId src, AdPayloadPtr payload);
  void note_readmit(NodeId cacher, NodeId source, Seconds t);
  /// Bookkeeping for an ad rejected by the fill-plausibility gate.
  void note_implausible(NodeId cacher, NodeId source, Seconds t);
  bool overload_enabled() const {
    return params_.pending_query_cap > 0 || params_.ttl_clamp_depth > 0;
  }

  // --- adaptive mode (ad_mode != kVanilla) ------------------------------
  /// The newest not-yet-disseminated ad a proxy holds for one source.
  struct PendingAd {
    AdKind kind = AdKind::kRefresh;
    AdPayloadPtr payload;
    std::uint32_t base = 0;                  // patch / delta base version
    std::vector<std::uint32_t> toggles;      // patch / delta entries
  };

  bool adaptive() const { return params_.ad_mode != AdMode::kVanilla; }
  Bytes pending_bytes(const PendingAd& p) const;
  /// Coalesces an uploaded ad into the proxy's pending set and (re)arms
  /// the scheduler item for its source.
  void enqueue_pending(NodeId sp, NodeId source, AdKind kind,
                       const AdPayloadPtr& payload,
                       std::span<const std::uint32_t> patch,
                       std::uint32_t base);
  void schedule_round(NodeId sp);
  /// Drains one scheduler round at `sp` into a packed mesh dissemination.
  void run_ad_round(NodeId sp);

  search::Ctx& ctx_;
  SuperpeerParams params_;
  overlay::Overlay sp_mesh_;  // same id space; only superpeers have edges
  std::vector<std::uint8_t> is_superpeer_;
  std::vector<NodeId> proxy_;
  std::uint32_t num_superpeers_ = 0;
  std::vector<Advertiser> advertisers_;
  std::vector<AdCache> caches_;  // only superpeer slots are ever filled
  std::vector<std::uint8_t> refresh_scheduled_;
  Counters counters_;
  std::vector<AdPayloadPtr> scratch_ads_;
  std::vector<AdPayloadPtr> reply_scratch_;
  // Adaptive-mode state; empty vectors in vanilla mode.
  std::vector<std::unordered_map<NodeId, PendingAd>> pending_;
  std::vector<AdScheduler> sp_scheds_;
  std::vector<std::uint8_t> round_scheduled_;
  /// Completion times of in-flight queries per superpeer; only allocated
  /// when overload protection is armed.
  std::vector<std::vector<Seconds>> pending_queries_;
};

}  // namespace asap::ads
