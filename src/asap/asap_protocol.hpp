// ASAP: the advertisement-based search protocol (paper §III).
//
// Nodes proactively advertise their content (full / patch / refresh ads,
// disseminated by a configurable forwarding scheme — flooding, random walk
// or GSA, giving the paper's ASAP(FLD)/ASAP(RW)/ASAP(GSA) variants) and
// selectively cache interesting ads from other peers. A search first scans
// the local ads cache; every matching ad triggers a one-hop content
// confirmation with the ad's source. If nothing matches (or nothing
// confirms), the node requests topical ads from neighbors within h hops,
// merges the replies, and retries once — the same warm-up path a freshly
// joined node uses (paper Table I).
//
// Placement: flat by default (every interested peer caches). With
// AsapParams::superpeer_fraction > 0 the same protocol runs in the
// superpeer placement of the paper's footnote 3 (asap/hierarchy.hpp): only
// superpeers cache, ads spread over the superpeer mesh, and a leaf's ads
// and searches go through its proxy superpeer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "asap/ad.hpp"
#include "asap/ad_cache.hpp"
#include "asap/ad_scheduler.hpp"
#include "asap/advertiser.hpp"
#include "asap/hierarchy.hpp"
#include "search/algorithm.hpp"
#include "search/baseline.hpp"
#include "search/context.hpp"

namespace asap::search {
struct PropagationStats;
}

namespace asap::ads {

/// Advertisement scheduling mode.
///   kVanilla  — the paper's behaviour: every change ships immediately,
///               refresh beacons fire every period (bit-identical legacy).
///   kAdaptive — timer ticks become ad *rounds*: an AdScheduler rotates a
///               change item (urgent, coalesces all changes since the last
///               round into one patch) and a refresh beacon (decays to
///               every 2nd/4th round once stable) into one byte-budgeted
///               packed frame per round.
///   kDelta    — kAdaptive, but changes ship as delta ads against the last
///               *full* ad: consecutive deltas are independently
///               applicable, so a lost frame does not invalidate cachers
///               the way a missed version-chained patch does.
enum class AdMode : std::uint8_t { kVanilla, kAdaptive, kDelta };

struct AsapParams {
  /// Ad forwarding scheme: ASAP(FLD) / ASAP(RW) / ASAP(GSA).
  search::Scheme scheme = search::Scheme::kRandomWalk;
  std::uint32_t flood_ttl = 6;        // full/patch ad floods (ASAP(FLD))
  std::uint32_t walkers = 5;

  /// Budget unit M0: one full-ad delivery gets |T(a)| * M0 messages
  /// (paper §IV-A; applies to the RW and GSA schemes).
  std::uint64_t budget_unit_m0 = 3'000;
  /// Budget scale for full ads sent after warm-up (joins, large changes).
  double join_budget_scale = 0.05;
  /// Budget scale for patch-ad deliveries.
  double patch_budget_scale = 0.25;
  /// Budget scale for refresh-ad deliveries.
  double refresh_budget_scale = 0.08;
  /// Refresh beacon period per sharing node (with +-50% jitter).
  Seconds refresh_period = 120.0;

  std::uint32_t ads_request_hops = 1;  // h (paper default 1)
  /// Cap on ads per reply to a join-time warm-up request (no query terms,
  /// so the whole reply is topical bulk).
  std::uint32_t join_reply_max = 64;
  std::uint32_t cache_capacity = 1'500;
  /// Positive confirmations the requester wants (paper Table I: "if more
  /// responses needed" widens the search with an ads request even after a
  /// local hit).
  std::uint32_t results_needed = 1;
  /// Patches larger than this many toggled positions ship as full ads.
  std::uint32_t patch_to_full_threshold = 1'024;
  /// Extension (off by default, ablation bench): an interested node that
  /// receives a refresh for an ad it does not cache pulls the full ad
  /// directly from the source.
  bool refresh_pull = false;
  /// Extension (1.0 = off): with the RW scheme, ad-delivery walkers pick
  /// the next hop with this relative preference for neighbors whose
  /// interests overlap the ad's topics — steering ads toward their
  /// consumers, exploiting the interest clustering of §III-A.
  double interest_bias = 1.0;

  // --- fault-hardening knobs (defaults reproduce legacy behaviour) -------
  /// Confirm attempts per candidate source; 1 = no retries (legacy). The
  /// harness raises this under fault scenarios (faults/fault_config.hpp).
  std::uint32_t confirm_max_attempts = 1;
  /// Consecutive confirm timeouts before the cached ad is evicted as
  /// stale; 1 = legacy behaviour (first timeout evicts).
  std::uint32_t stale_timeout_strikes = 1;
  /// Base backoff before a confirm retry: attempt k (k >= 2) starts
  /// backoff * 2^(k-2) seconds after the previous attempt's timeout.
  Seconds confirm_retry_backoff = 1.0;

  // --- adaptive advertisement scheduling (kVanilla = legacy) ------------
  /// Adaptive and delta rounds run on the refresh period with
  /// AdSchedulerParams' defaults (asap/ad_scheduler.hpp).
  AdMode ad_mode = AdMode::kVanilla;
  /// Re-admission backoff after a stale-strike eviction: the evicted
  /// source's ads are dropped for this long so an in-flight walker cannot
  /// re-admit the just-evicted stale ad in the same tick. 0 = legacy.
  Seconds stale_readmit_backoff = 0.0;

  // --- adversarial defense (defaults reproduce legacy behaviour) ---------
  /// Per-source trust scoring on cached ads (AdCache::set_trust_params):
  /// confirmed hits reward, false positives and timed-out confirm chains
  /// strike; entries below the threshold are quarantined with exponential
  /// re-admit backoff. Off = legacy (no trust reads, no extra draws).
  bool trust_enabled = false;
  double trust_reward = 0.3;
  double trust_strike_decay = 0.5;
  double trust_quarantine_threshold = 0.2;
  Seconds trust_quarantine_backoff = 120.0;
  /// Ad-admission plausibility gate (AdCache::set_fill_gate): reject and
  /// quarantine sources whose ads fill more of the Bloom filter than the
  /// design keyword capacity can honestly set. 0 = off (legacy).
  double trust_fill_gate = 0.0;
  /// One stale strike per confirm attempt chain (fixes double-counting
  /// when overlapping queries confirm the same source). Off = legacy.
  bool strike_per_chain = false;
  /// Bounded per-origin pending-query queue: a query arriving while this
  /// many are already in flight at its origin is shed (fails immediately,
  /// zero protocol cost). 0 = unbounded (legacy).
  std::uint32_t pending_query_cap = 0;
  /// Pending depth at which the search degrades gracefully: phase-2
  /// ads-requests are suppressed (TTL clamp-down). 0 = never clamp.
  std::uint32_t ttl_clamp_depth = 0;

  /// Fraction of the initial peers promoted to superpeers, by degree, in
  /// [0, 1]. 0 = the flat placement; any other value runs the superpeer
  /// placement (vanilla ad scheduling only).
  double superpeer_fraction = 0.0;

  static AsapParams small(search::Scheme s);
  static AsapParams paper(search::Scheme s);
  /// The superpeer placement at the small preset: the mesh is ~6x smaller
  /// than the overlay, so M0 shrinks to match, and superpeers are capable
  /// nodes with larger caches.
  static AsapParams superpeer(search::Scheme s);
};

class AsapProtocol final : public search::SearchAlgorithm {
 public:
  AsapProtocol(search::Ctx& ctx, AsapParams params);

  /// Ad deliveries plus confirmation and ads-request traffic (§V-B).
  /// kPackedAd is always zero for the vanilla variants, so listing it
  /// changes no legacy metric.
  static constexpr sim::Traffic kLoadCategories[] = {
      sim::Traffic::kConfirm,   sim::Traffic::kAdsRequest,
      sim::Traffic::kFullAd,    sim::Traffic::kPatchAd,
      sim::Traffic::kRefreshAd, sim::Traffic::kPackedAd};

  std::string name() const override;
  std::span<const sim::Traffic> load_categories() const override {
    return kLoadCategories;
  }
  void warm_up(Seconds duration) override;
  void on_trace_event(const trace::TraceEvent& event) override;
  std::uint64_t state_bytes() const override;

  // --- introspection (tests, examples) ---------------------------------
  const AdCache& cache(NodeId n) const { return caches_[n]; }
  const Advertiser& advertiser(NodeId n) const { return advertisers_[n]; }
  /// Total cache entries across all peers (memory footprint probe).
  std::uint64_t total_cached_ads() const;
  // Superpeer placement (false / kInvalidNode / 0 when flat).
  bool is_superpeer(NodeId n) const {
    return hier_.has_value() && hier_->is_superpeer(n);
  }
  NodeId proxy_of(NodeId n) const {
    return hier_.has_value() ? hier_->proxy_of(n) : kInvalidNode;
  }
  std::uint32_t num_superpeers() const {
    return hier_.has_value() ? hier_->num_superpeers() : 0;
  }

  struct Counters {
    std::uint64_t full_ads = 0;
    std::uint64_t patch_ads = 0;
    std::uint64_t refresh_ads = 0;
    std::uint64_t ads_requests = 0;
    std::uint64_t confirm_requests = 0;
    std::uint64_t refresh_pulls = 0;
    // Fault-hardening telemetry (zero in legacy configurations except
    // confirm_timeouts / stale_evictions, which also count the legacy
    // dead-source path).
    std::uint64_t confirm_retries = 0;
    std::uint64_t confirm_timeouts = 0;
    std::uint64_t stale_evictions = 0;
    /// Queries whose ads-request refetch restored at least one cache entry
    /// after a stale eviction in the same query (time-to-repair events).
    std::uint64_t repair_refetches = 0;
    Bytes retry_bytes = 0;  ///< bandwidth spent on confirm retries
    double repair_seconds_sum = 0.0;  ///< sum over repair_refetches
    // Adaptive-scheduling telemetry (all zero in vanilla mode).
    std::uint64_t ad_rounds = 0;       ///< scheduler rounds executed
    std::uint64_t packed_frames = 0;   ///< non-empty frames disseminated
    std::uint64_t packed_entries = 0;  ///< ads shipped inside frames
    std::uint64_t spilled_entries = 0; ///< budget spills carried to next round
    std::uint64_t delta_ads = 0;       ///< delta ads shipped (kDelta mode)
    // Adversarial telemetry (all zero unless Byzantine roles are armed).
    std::uint64_t polluted_ads = 0;     ///< full ads shipped with phantom bits
    std::uint64_t forced_negatives = 0; ///< stale-advertiser confirm replies
    std::uint64_t dropped_confirms = 0; ///< confirm requests silently dropped
    // Defense telemetry (all zero unless trust / overload knobs are on).
    std::uint64_t trust_strikes = 0;
    std::uint64_t quarantines = 0;   ///< quarantine entries (trust collapse)
    std::uint64_t readmissions = 0;  ///< quarantine exits (sentence served)
    std::uint64_t queries_shed = 0;
    std::uint64_t ttl_clamped = 0;   ///< queries whose phase 2 was suppressed
    std::uint64_t peak_pending_depth = 0;
    // Superpeer placement telemetry (zero when flat).
    std::uint64_t proxy_uploads = 0;  ///< leaf -> proxy ad transfers
    std::uint64_t proxy_queries = 0;  ///< leaf -> proxy search requests

    bool operator==(const Counters&) const = default;
  };
  const Counters& counters() const { return counters_; }
  const AsapParams& params() const { return params_; }

 private:
  std::uint64_t delivery_budget(std::size_t num_topics, double scale) const;

  /// Returns `payload` unless `src` is a seeded polluter, in which case a
  /// copy with deterministic phantom set bits (keyed on source + version,
  /// no RNG-stream draws) is published instead. Polluters only ever ship
  /// full ads — their patches/deltas are forced to full at the call sites
  /// so the delta audit oracle never sees phantom bits.
  AdPayloadPtr maybe_pollute(NodeId src, AdPayloadPtr payload);
  bool is_polluter(NodeId n) const;
  /// Counts a put()'s quarantine re-admission (defense telemetry).
  void note_readmit(NodeId cacher, NodeId source, Seconds t);
  /// Bookkeeping for an ad rejected by the fill-plausibility gate: counts
  /// the strike + quarantine and emits the obs/trace events.
  void note_implausible(NodeId cacher, NodeId source, Seconds t);
  bool overload_enabled() const {
    return params_.pending_query_cap > 0 || params_.ttl_clamp_depth > 0;
  }

  /// Applies one ad of any kind to v's cache — the one ingest path of walk
  /// deliveries, packed frames, ads-reply merges and refresh pulls. Patch
  /// and delta ads carry `toggles` against `base_version`. Returns true iff
  /// the ad was stored (full) or applied (patch, delta, refresh).
  bool ingest(NodeId v, AdKind kind, const AdPayloadPtr& ad,
              std::span<const std::uint32_t> toggles,
              std::uint32_t base_version, Seconds t);

  /// Counts one shipped ad of `kind` in the per-kind counters.
  void count_shipped(AdKind kind);

  /// Runs `visit` over one ad dissemination from `origin` with the
  /// configured scheme: a flood (shallower for refresh-only messages) or
  /// walks whose budget scales with the topics of `lead`. In the superpeer
  /// placement it walks the superpeer mesh.
  template <typename Visit>
  search::PropagationStats disseminate(NodeId origin, Seconds when,
                                       bool refresh_only, double scale,
                                       const AdPayload& lead, Bytes msg_size,
                                       sim::Traffic cat, Visit& visit);

  /// Disseminates an ad from `src` starting at `when`; patch and delta ads
  /// carry `toggles` against `base_version`. In the superpeer placement a
  /// leaf first uploads the ad to its proxy, which caches it and starts
  /// the spread.
  void deliver_ad(NodeId src, AdKind kind, Seconds when, double scale,
                  const AdPayloadPtr& payload,
                  std::span<const std::uint32_t> toggles,
                  std::uint32_t base_version);

  void on_join(const trace::TraceEvent& ev);
  void on_rejoin(const trace::TraceEvent& ev);
  void on_content_change(const trace::TraceEvent& ev);
  void run_query(const trace::TraceEvent& ev);

  /// Runs the join-time warm-up ads request for n (flat placement only).
  void warm_cache(NodeId n, Seconds t);

  /// Trust-weighted ranking: with trust on, sorts `ads` most trusted
  /// source first by `owner`'s cache, keeping scan order for equal trust.
  void rank_by_trust(NodeId owner, std::vector<AdPayloadPtr>& ads) const;

  /// Confirms each candidate ad with its source. `requester` sends the
  /// requests and sees the replies; `owner` is the peer whose cache held
  /// the candidates and takes the outcome (touch, rewards, strikes,
  /// quarantine, stale eviction) — the same peer when flat. Returns the
  /// earliest positive-reply time (infinity if none). `resolve` is
  /// advanced to the time the whole round is known to have finished;
  /// `rec.results` counts the positive confirmations.
  Seconds confirm_round(NodeId requester, NodeId owner, Seconds start,
                        std::span<const KeywordId> terms,
                        std::span<const AdPayloadPtr> candidates,
                        metrics::SearchRecord& rec, Seconds& resolve,
                        std::vector<NodeId>& dead_sources);

  /// Requests ads from `owner`'s neighbors within h hops (mesh neighbours
  /// in the superpeer placement), merges the replies into owner's cache
  /// and collects term-matching payloads. Replies add topical ads for
  /// `interests`. The query is pre-hashed (ctx_.hash_query) so every
  /// reply-side cache scan and merge-side match test reuses the one-shot
  /// probe positions; an empty query is the join-time warm-up request.
  /// The owner's own ad and ads from `skip_sources` (sources the requester
  /// just observed dead) are not merged. Returns completion time.
  Seconds ads_request_phase(NodeId owner,
                            const std::vector<TopicId>& interests,
                            Seconds start, const bloom::HashedQuery& query,
                            metrics::SearchRecord* rec,
                            std::span<const NodeId> skip_sources,
                            std::vector<AdPayloadPtr>& matches_out);

  void schedule_refresh(NodeId n);
  void on_refresh_timer(NodeId n);

  // --- adaptive mode (ad_mode != kVanilla) ------------------------------
  /// One planned entry of a packed ad-round frame.
  struct FrameEntry {
    AdKind kind = AdKind::kRefresh;
    AdPayloadPtr payload;
    std::uint32_t base_version = 0;          // patch / delta entries
    std::vector<std::uint32_t> toggles;      // patch / delta entries
  };

  bool adaptive() const { return params_.ad_mode != AdMode::kVanilla; }
  /// Runs one scheduler round for `n` and ships the resulting frame.
  void run_ad_round(NodeId n);
  /// Disseminates one packed frame (Traffic::kPackedAd) with one walk.
  void deliver_packed(NodeId src, Seconds when, double scale,
                      std::span<const FrameEntry> entries,
                      std::uint32_t spilled);

  /// Scheduler item ids in flat mode: the refresh beacon and the coalesced
  /// pending-change item.
  static constexpr AdScheduler::ItemId kBeaconItem = 0;
  static constexpr AdScheduler::ItemId kChangeItem = 1;

  /// True iff node `v` would cache an ad with these topics (selective
  /// caching, §III-B). Superpeers are interested in every ad, leaves in
  /// none (interest_mask_).
  bool interested(NodeId v, const AdPayload& ad) const {
    return (ad.topic_mask & interest_mask_[v]) != 0;
  }

  search::Ctx& ctx_;
  AsapParams params_;
  std::vector<Advertiser> advertisers_;
  std::vector<AdCache> caches_;
  /// Per node slot: topic_mask_of(model.interests(n)). Interests are fixed
  /// when the content model is built, so this is computed once. In the
  /// superpeer placement: all ones for superpeers, zero for leaves.
  std::vector<TopicMask> interest_mask_;
  /// The superpeer placement; empty when flat.
  std::optional<SuperpeerHierarchy> hier_;
  std::vector<std::uint8_t> refresh_scheduled_;
  std::vector<AdScheduler> scheds_;  // per node; empty in vanilla mode
  std::vector<AdScheduler::Emission> emissions_scratch_;
  std::vector<FrameEntry> frame_scratch_;
  Counters counters_;
  std::vector<AdPayloadPtr> scratch_ads_;
  std::vector<AdPayloadPtr> reply_scratch_;
  /// Earliest stale eviction within the current query, for time-to-repair
  /// accounting; reset to +inf at each query start.
  Seconds repair_pending_since_ = 0.0;
  /// Entries the most recent ads_request_phase stored into the owner's
  /// cache (repair evidence).
  std::uint64_t last_request_stored_ = 0;
  /// Per-cache-owner in-flight query completion times (overload protection).
  /// Empty vectors unless pending_query_cap / ttl_clamp_depth is set, so
  /// legacy runs never touch it.
  std::vector<std::vector<Seconds>> pending_;
};

}  // namespace asap::ads
