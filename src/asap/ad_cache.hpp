// Per-node ads repository (paper §III-C).
//
// Bounded store of interesting ads keyed by source node. Eviction is
// sampled-LRU (evict the least-recently-touched of k random entries), an
// O(1) approximation that avoids both full scans and heavyweight intrusive
// lists — important because ad deliveries generate millions of inserts.
//
// Storage is structure-of-arrays: `records_` (a 16-byte {ad, touch}
// record per entry; the source is ad->source) and `prefilter_` are
// index-aligned, with `pos_` — an open-addressing FlatMap, 16 bytes when
// empty — mapping source → index. Both arrays grow geometrically but
// never past capacity(). Per-source state that is rarely set lives in
// sparse side maps keyed by source: the delta base where it differs from
// the ad, non-zero timeout strikes, and non-default trust / strike-chain
// marks. Erasing an entry erases its side state (DESIGN.md §18). An
// empty cache costs under 200 bytes and no heap, which is what lets a
// million-node world keep one per peer. The scan path
// (collect_matches / collect_for_reply over a HashedQuery) walks the dense
// 8-byte prefilter array first — each word is the fold of that entry's
// Bloom filter (bloom/hashed_query.hpp) — and only entries whose fold
// covers the query's fold mask touch their ~1.4 KB filter. Query terms are
// tested rarest-fold-bit-first so mismatching entries exit early. Under
// ASAP_AUDIT every hashed scan is re-run through the legacy hash-per-term
// path and the results compared.
//
// Version discipline:
//   * a full ad replaces whatever is cached for its source,
//   * a patch applies only if the cached version equals the patch's base
//     version (the entry then adopts the new canonical payload); any
//     mismatch invalidates the entry — it will be re-learned from a later
//     full ad or an ads request,
//   * a refresh touches a version-matching entry and invalidates a
//     mismatching one,
//   * a delta applies only if the entry still remembers the full ad it is
//     based on (its base, recorded at every full-ad put) and that
//     base matches the delta's base-full version; consecutive deltas
//     against the same base are then independently applicable, so a lost
//     delta does not break the chain the way a missed patch does.
//
// Re-admission backoff (stale-strike hygiene): when the confirm path
// strikes out a stale entry it calls erase_stale(), which opens a backoff
// window during which put() silently drops ads for that source — otherwise
// a walker already in flight re-admits the just-evicted stale ad in the
// same tick. A zero backoff (the default) makes erase_stale() behave
// exactly like erase().
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "asap/ad.hpp"
#include "bloom/hashed_query.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace asap::ads {

/// Outcome of a version-disciplined cache update (patch or refresh).
enum class UpdateOutcome : std::uint8_t {
  kApplied,       ///< patch applied / refresh touched a matching entry
  kMissing,       ///< source not cached; nothing to update
  kIgnoredStale,  ///< cached entry already newer; message ignored
  kInvalidated,   ///< stale-beyond-repair entry erased
};

class AdCache {
 public:
  /// One entry with its side state, assembled for inspection (tests and
  /// benchmarks). `ad` refers into the cache and stays valid until the
  /// cache changes.
  struct Entry {
    const AdPayloadPtr& ad;
    /// The last *full* ad received for this source — the base delta ads
    /// apply against. The same payload as `ad` unless a patch or delta
    /// moved the entry past its last full ad.
    AdPayloadPtr base;
    double touch;
    /// Consecutive confirm timeouts against this source; a fresh ad (any
    /// successful put) or a confirm reply resets it. Drives stale-ad
    /// eviction under the fault-hardening knobs.
    std::uint32_t timeout_strikes;
    /// Per-source trust in [0,1], driven by confirm outcomes when trust
    /// scoring is enabled (set_trust_params). 1.0 = fully trusted; entries
    /// start trusted and earn strikes. Written (and read) only when trust
    /// is on, so vanilla digests cannot shift.
    double trust;
    /// End of the last counted strike's confirm-attempt chain, written
    /// only with the strike-chain guard on. A strike whose chain *started*
    /// before this instant is part of the same evidence window and is not
    /// re-counted (one strike per confirm attempt chain).
    double strike_chain_end;
  };

  /// Index-ordered view of the entries: entries()[i] is scan position i.
  class EntryView {
   public:
    struct iterator {
      const AdCache* cache;
      std::size_t idx;
      Entry operator*() const { return cache->entry_at(idx); }
      iterator& operator++() {
        ++idx;
        return *this;
      }
      bool operator==(const iterator&) const = default;
    };

    explicit EntryView(const AdCache& cache) : cache_(&cache) {}
    std::size_t size() const { return cache_->size(); }
    Entry operator[](std::size_t idx) const { return cache_->entry_at(idx); }
    iterator begin() const { return {cache_, 0}; }
    iterator end() const { return {cache_, size()}; }

   private:
    const AdCache* cache_;
  };

  /// What a put() did, so callers can count stores and evictions.
  struct PutResult {
    bool stored = false;   ///< payload inserted or replaced an older one
    bool evicted = false;  ///< another source's entry was evicted for room
    /// The source served out its quarantine and was re-admitted by this
    /// put (only ever true when trust scoring is enabled).
    bool readmitted = false;
    /// The ad failed the fill-plausibility gate (set_fill_gate): its Bloom
    /// filter claims more bits than an honest keyword set can set. The ad
    /// was admitted fully distrusted (demote-and-verify, not drop — the
    /// source's real content stays reachable as a last resort).
    bool implausible = false;
  };

  /// @param capacity  maximum entries; 0 disables caching entirely (every
  ///                  put is a silent no-op — useful for ablations).
  explicit AdCache(std::uint32_t capacity = 1'500);

  std::uint32_t capacity() const { return capacity_; }
  std::size_t size() const { return records_.size(); }

  /// Inserts or replaces the ad for its source; evicts if over capacity.
  /// A stale version for an already-cached source only touches the entry
  /// (stored stays false). Redelivering the payload the entry holds (an ad
  /// walk revisiting a node) re-bases the entry on it, resets strikes and
  /// touches it without re-folding the filter; stored = true.
  PutResult put(const AdPayloadPtr& ad, double now, Rng& rng);

  /// Applies a patch: swaps to `next` iff the cached version equals
  /// `base_version` (kApplied). Any other version mismatch either keeps a
  /// newer entry (kIgnoredStale) or erases the stale one (kInvalidated).
  UpdateOutcome apply_patch(NodeId source, std::uint32_t base_version,
                            const AdPayloadPtr& next, double now);

  /// Handles a refresh beacon: touches a version-matching entry
  /// (kApplied), erases one older than the beacon (kInvalidated), ignores
  /// a delayed beacon for a newer entry (kIgnoredStale).
  UpdateOutcome on_refresh(NodeId source, std::uint32_t version, double now);

  /// Applies a delta ad: swaps to `next` iff the entry's remembered full
  /// ad matches `base_full_version` (kApplied). A newer cached version
  /// ignores the delta (kIgnoredStale); a base mismatch erases the entry
  /// (kInvalidated) — it re-learns from the next full ad.
  UpdateOutcome apply_delta(NodeId source, std::uint32_t base_full_version,
                            std::span<const std::uint32_t> toggles,
                            const AdPayloadPtr& next, double now);

  bool erase(NodeId source);

  /// Erases like erase(), and — when a re-admission backoff is configured —
  /// blocks put() for this source until `now + backoff` so the evicted
  /// stale ad cannot be re-admitted by in-flight ads in the same tick.
  bool erase_stale(NodeId source, double now);

  /// Re-admission backoff after erase_stale(); 0 (default) disables the
  /// blocking entirely (erase_stale degenerates to erase).
  void set_readmit_backoff(double backoff) { readmit_backoff_ = backoff; }
  /// True while put() would drop ads for `source` (regression tests).
  bool readmit_blocked(NodeId source, double now) const;
  /// The cached entry for `source`, if any.
  std::optional<Entry> find(NodeId source) const;
  void touch(NodeId source, double now);

  /// Records one confirm timeout against `source`; returns the updated
  /// consecutive-strike count (0 when the source is not cached).
  std::uint32_t record_timeout(NodeId source);
  /// Chain-aware twin: the timeout belongs to a confirm attempt chain
  /// spanning [chain_start, chain_end). With the strike-chain guard on
  /// (set_strike_per_chain), a chain that started before the last counted
  /// chain ended is the same evidence window — the count is returned
  /// unchanged instead of double-counting. Guard off = legacy behaviour.
  std::uint32_t record_timeout(NodeId source, double chain_start,
                               double chain_end);
  /// Clears the strike count (a confirm reply proved the source alive).
  void reset_timeouts(NodeId source);
  void set_strike_per_chain(bool on) { strike_per_chain_ = on; }

  // --- per-source trust (adversarial defense; off by default) -----------
  /// Enables trust scoring: confirmed hits reward (trust += reward *
  /// (1 - trust)), strikes decay (trust *= decay); an entry falling below
  /// `threshold` is quarantined for `backoff * 2^repeat_offenses`.
  void set_trust_params(double reward, double decay, double threshold,
                        double backoff);
  bool trust_enabled() const { return trust_enabled_; }
  /// Trust for a cached source; 1.0 when unknown / trust off.
  double trust_of(NodeId source) const;
  /// Positive confirm outcome: rewards the source's entry.
  void record_reward(NodeId source);
  /// Negative outcome (false positive or timed-out chain): decays trust;
  /// if the entry crosses the quarantine threshold it is erased and its
  /// source blocked from put() until the backoff expires. Returns true
  /// when this strike quarantined the entry.
  bool record_strike(NodeId source, double now);
  /// True while put() would drop ads from `source` due to quarantine.
  bool quarantined(NodeId source, double now) const;

  /// Admission-time plausibility gate against polluted ads: a put() whose
  /// filter fill ratio (popcount / bits) exceeds `max_fill` is admitted
  /// with trust forced to zero (PutResult::implausible). An honest node at
  /// the design keyword capacity fills at most 1 - e^(-k*n/m) (~0.50 for
  /// the default geometry), so a gate around 0.65 never fires on honest
  /// traffic. Demote-and-verify, not drop: trust-weighted ranking sends
  /// confirm probes to honest sources first, yet a polluter's *real*
  /// content (pollution only adds phantom bits to a truthful filter)
  /// remains reachable as a last resort; a distrusted entry that then
  /// wastes a confirm is quarantined by the first strike. 0 (default)
  /// disables.
  void set_fill_gate(double max_fill) {
    fill_gate_ = static_cast<float>(max_fill);
  }
  double fill_gate() const { return fill_gate_; }

  /// All cached ads whose filter claims every term (paper Table I match).
  /// Legacy hash-per-term scan; the HashedQuery overload is the hot path.
  void collect_matches(std::span<const KeywordId> terms,
                       std::vector<AdPayloadPtr>& out) const;

  /// Fast path: same result set and order as the span overload, but all
  /// hashing happened once at query-origin time and most non-matching
  /// entries are rejected by the 8-byte prefilter.
  void collect_matches(const bloom::HashedQuery& query,
                       std::vector<AdPayloadPtr>& out) const;

  /// Builds an ads-request reply: term-matching ads first (up to `max_ads`
  /// total), then at most `max_topical` ads whose topics overlap the
  /// requester's interests. Term filtering keeps failure-path replies small
  /// (a handful of candidate ads) while a join-time warm-up request
  /// (empty terms, large `max_topical`) still transfers a useful bundle.
  void collect_for_reply(std::span<const KeywordId> terms,
                         const std::vector<TopicId>& interests,
                         std::uint32_t max_ads, std::uint32_t max_topical,
                         std::vector<AdPayloadPtr>& out) const;

  /// Fast-path twin of the span overload (identical output).
  void collect_for_reply(const bloom::HashedQuery& query,
                         const std::vector<TopicId>& interests,
                         std::uint32_t max_ads, std::uint32_t max_topical,
                         std::vector<AdPayloadPtr>& out) const;

  /// Index-aligned views over the SoA storage (tests / debugging).
  EntryView entries() const { return EntryView(*this); }
  std::span<const std::uint64_t> prefilters() const {
    return {prefilter_.get(), records_.size()};
  }

  /// Heap bytes owned by this cache's containers, side maps included
  /// (payloads are shared wire objects, counted by their producers, so
  /// they are excluded). Drives the per-node state accounting in scale
  /// benchmarks.
  std::uint64_t memory_bytes() const;

 private:
  Entry entry_at(std::size_t idx) const;
  void evict_one(Rng& rng);
  void erase_at(std::size_t idx);
  /// Makes room for one more record: grows both arrays geometrically, but
  /// never past capacity_.
  void reserve_one();
  /// Moves entry `idx` on to `next` by a patch or delta, keeping its
  /// base; `stored_base` is bases_.get() for its source.
  void advance(std::size_t idx, const AdPayload* stored_base,
               const AdPayloadPtr& next);

  /// Puts `source` in quarantine (exponential backoff per repeat offense)
  /// and drops its cached entry if present. Shared by record_strike and the
  /// fill-plausibility gate.
  void quarantine_source(NodeId source, double now);

  /// Prefilter word for a payload: the filter's 64-bit fold when its
  /// geometry matches the system-wide default, else all-ones ("cannot
  /// prefilter, always scan") so foreign-geometry entries stay correct.
  std::uint64_t prefilter_for(const AdPayload& ad) const;
  void set_payload(std::size_t idx, const AdPayloadPtr& ad);
  void fold_count_add(std::uint64_t word);
  void fold_count_remove(std::uint64_t word);

  /// Orders query-term indices most-selective-first: ascending by the
  /// number of cached entries whose prefilter could cover the term's fold
  /// mask (an upper bound on its matchable entries). Returns the term
  /// count, or 0 for "use natural order" (oversized queries). Ordering
  /// only changes how fast a non-match exits, never the matched set.
  static constexpr std::size_t kMaxOrderedTerms = 8;
  std::size_t order_terms(const bloom::HashedQuery& query,
                          std::array<std::uint8_t, kMaxOrderedTerms>& order)
      const;

  /// Prefilter geometry: the system-wide default.
  static constexpr bloom::BloomParams kCanonical{};

  /// The hot part of an entry, one per cached source in scan order.
  struct Record {
    AdPayloadPtr ad;
    double touch = 0.0;  // virtual time of last use
  };
  static_assert(sizeof(Record) == 16,
                "a record is one payload handle and a touch time");

  std::uint32_t capacity_;
  /// Max admissible filter fill ratio; 0 disables the plausibility gate.
  /// A float so it packs beside capacity_ — the empty-cache footprint
  /// bound (million-node worlds) stays intact.
  float fill_gate_ = 0.0f;
  std::vector<Record> records_;
  /// One word per records_ slot: its length is records_.capacity().
  std::unique_ptr<std::uint64_t[]> prefilter_;
  // Per-bit prefilter counts driving the rarest-first term ordering: the
  // number of entries whose prefilter has bit j set is bits[j] + all_ones.
  // All-ones words (a dense filter folds to all-ones; so does a foreign
  // geometry) are counted once in all_ones instead of 64 times in bits.
  // Allocated lazily on the first nonzero prefilter word — a million idle
  // caches cost 8 bytes each here, not 260 — and a null block reads as
  // all-zero counts (order_terms then degrades to natural term order,
  // exactly like an eager all-zero block would).
  struct FoldCounts {
    std::array<std::uint32_t, 64> bits{};
    std::uint32_t all_ones = 0;
  };
  std::unique_ptr<FoldCounts> fold_count_;
  FlatMap<NodeId, std::uint32_t> pos_;  // source -> index
  /// Side state, keyed by source; each erased with its entry.
  /// The delta base, where it is not the entry's ad.
  PayloadMap bases_;
  /// Non-zero timeout strikes.
  FlatMap<NodeId, std::uint32_t> strikes_;
  /// Non-default trust and strike-chain marks; written only with trust
  /// scoring or the strike-chain guard on.
  struct Standing {
    double trust = 1.0;
    double strike_chain_end = -1.0;
  };
  FlatMap<NodeId, Standing> standing_;
  /// source -> virtual time until which puts are dropped (erase_stale).
  /// Empty unless a backoff is configured, so vanilla runs never pay a
  /// lookup in put().
  FlatMap<NodeId, double> struck_;
  double readmit_backoff_ = 0.0;
  /// Quarantine roster: source -> (re-admit time, repeat-offense count).
  /// Empty unless trust scoring is on — put() guards on emptiness first.
  struct Quarantine {
    double until = 0.0;
    std::uint32_t offenses = 0;
  };
  FlatMap<NodeId, Quarantine> quar_;
  bool trust_enabled_ = false;
  bool strike_per_chain_ = false;
  double trust_reward_ = 0.3;
  double trust_decay_ = 0.5;
  double trust_threshold_ = 0.2;
  double quarantine_backoff_ = 120.0;
};

}  // namespace asap::ads
