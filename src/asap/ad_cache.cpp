#include "asap/ad_cache.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace asap::ads {

AdCache::AdCache(std::uint32_t capacity) : capacity_(capacity) {}

std::uint64_t AdCache::prefilter_for(const AdPayload& ad) const {
  if (ad.filter.params() != kCanonical) return ~0ULL;
  return ad.fold;
}

void AdCache::fold_count_add(std::uint64_t word) {
  if (word == 0) return;
  if (!fold_count_) fold_count_ = std::make_unique<FoldCounts>();
  if (word == ~0ULL) {
    ++fold_count_->all_ones;
    return;
  }
  while (word != 0) {
    ++fold_count_->bits[static_cast<std::size_t>(std::countr_zero(word))];
    word &= word - 1;
  }
}

void AdCache::fold_count_remove(std::uint64_t word) {
  if (word == 0) return;
  ASAP_DCHECK(fold_count_ != nullptr);
  if (word == ~0ULL) {
    ASAP_DCHECK(fold_count_->all_ones > 0);
    --fold_count_->all_ones;
    return;
  }
  while (word != 0) {
    auto& c =
        fold_count_->bits[static_cast<std::size_t>(std::countr_zero(word))];
    ASAP_DCHECK(c > 0);
    --c;
    word &= word - 1;
  }
}

void AdCache::set_payload(std::size_t idx, const AdPayloadPtr& ad) {
  const std::uint64_t pre = prefilter_for(*ad);
  fold_count_remove(prefilter_[idx]);
  fold_count_add(pre);
  prefilter_[idx] = pre;
  records_[idx].ad = ad;
}

void AdCache::advance(std::size_t idx, const AdPayload* stored_base,
                      const AdPayloadPtr& next) {
  const AdPayloadPtr& ad = records_[idx].ad;
  if (stored_base == nullptr) {
    // The current ad is the base; the side map takes its reference
    // before set_payload drops the record's.
    if (ad != next) bases_.set(ad->source, ad);
  } else if (stored_base == next.get()) {
    bases_.erase(ad->source);  // back at the base: no separate copy
  }
  set_payload(idx, next);
}

void AdCache::reserve_one() {
  const std::size_t cap = records_.capacity();
  if (records_.size() < cap) return;
  const std::size_t grown = std::min<std::size_t>(
      capacity_, std::max<std::size_t>(1, 2 * cap));
  ASAP_DCHECK(grown > cap);
  records_.reserve(grown);
  auto words = std::make_unique_for_overwrite<std::uint64_t[]>(grown);
  std::copy_n(prefilter_.get(), records_.size(), words.get());
  prefilter_ = std::move(words);
}

AdCache::PutResult AdCache::put(const AdPayloadPtr& ad, double now,
                                Rng& rng) {
  ASAP_DCHECK(ad != nullptr);
  // Capacity 0 = caching disabled: nothing is stored, nothing is evicted,
  // and no randomness is consumed.
  if (capacity_ == 0) return {};
  const NodeId src = ad->source;
  if (!struck_.empty()) {
    if (const double* until = struck_.find(src)) {
      if (now < *until) return {};  // re-admission backoff: drop
      struck_.erase(src);
    }
  }
  bool readmitted = false;
  if (!quar_.empty()) {
    if (const Quarantine* q = quar_.find(src)) {
      if (now < q->until) return {};  // quarantined: drop silently
      // Sentence served: re-admit, but remember the offense count so a
      // repeat offender's next quarantine doubles.
      readmitted = true;
    }
  }
  bool implausible = false;
  if (fill_gate_ > 0.0f) {
    // Plausibility gate: a filter claiming more bits than the honest
    // keyword capacity can set is a polluted ad. Admit it, but fully
    // distrusted — confirm probes go to honest sources first, and the
    // first wasted probe quarantines. popcount() is a maintained field,
    // so this costs one multiply per put.
    const auto bits = static_cast<double>(ad->filter.params().bits);
    implausible =
        static_cast<double>(ad->filter.popcount()) > fill_gate_ * bits;
  }
  if (const std::uint32_t* idxp = pos_.find(src)) {
    const std::uint32_t idx = *idxp;
    Record& rec = records_[idx];
    PutResult r;
    r.implausible = implausible;
    if (rec.ad == ad || ad->version >= rec.ad->version) {
      // Never downgrade to an older version (late full ads can race a
      // newer patch). A full ad is also the new delta base, and evidence
      // the source is alive and advertising. An ad walk revisiting a node
      // redelivers the payload the entry holds (most puts); its record
      // and prefilter word then stay as they are.
      bases_.erase(src);
      if (rec.ad != ad) set_payload(idx, ad);
      strikes_.erase(src);
      r.stored = true;
    }
    // The gate's verdict is about the source, not this ad instance: even
    // a stale stuffed delivery collapses the entry's trust.
    if (implausible && trust_enabled_) standing_[src].trust = 0.0;
    rec.touch = now;
    return r;
  }
  PutResult r;
  r.readmitted = readmitted;
  r.implausible = implausible;
  if (records_.size() >= capacity_) {
    evict_one(rng);
    r.evicted = true;
  }
  pos_.emplace(src, static_cast<std::uint32_t>(records_.size()));
  const std::uint64_t pre = prefilter_for(*ad);
  fold_count_add(pre);
  reserve_one();
  prefilter_[records_.size()] = pre;
  records_.push_back(Record{ad, now});
  if (implausible && trust_enabled_) standing_[src].trust = 0.0;
  r.stored = true;
  return r;
}

UpdateOutcome AdCache::apply_patch(NodeId source, std::uint32_t base_version,
                                   const AdPayloadPtr& next, double now) {
  const std::uint32_t* idxp = pos_.find(source);
  if (idxp == nullptr) return UpdateOutcome::kMissing;
  const std::uint32_t idx = *idxp;
  Record& rec = records_[idx];
  if (rec.ad->version == base_version) {
    ASAP_DCHECK(next->source == source);
    advance(idx, bases_.get(source), next);
    rec.touch = now;
    return UpdateOutcome::kApplied;
  }
  if (rec.ad->version >= next->version) return UpdateOutcome::kIgnoredStale;
  erase_at(idx);  // stale beyond repair
  return UpdateOutcome::kInvalidated;
}

UpdateOutcome AdCache::on_refresh(NodeId source, std::uint32_t version,
                                  double now) {
  const std::uint32_t* idxp = pos_.find(source);
  if (idxp == nullptr) return UpdateOutcome::kMissing;
  const std::uint32_t idx = *idxp;
  Record& rec = records_[idx];
  if (rec.ad->version == version) {
    rec.touch = now;
    return UpdateOutcome::kApplied;
  }
  if (rec.ad->version < version) {
    erase_at(idx);
    return UpdateOutcome::kInvalidated;
  }
  return UpdateOutcome::kIgnoredStale;
}

UpdateOutcome AdCache::apply_delta(NodeId source,
                                   std::uint32_t base_full_version,
                                   std::span<const std::uint32_t> toggles,
                                   const AdPayloadPtr& next, double now) {
  const std::uint32_t* idxp = pos_.find(source);
  if (idxp == nullptr) return UpdateOutcome::kMissing;
  const std::uint32_t idx = *idxp;
  Record& rec = records_[idx];
  if (rec.ad->version >= next->version) return UpdateOutcome::kIgnoredStale;
  const AdPayload* stored_base = bases_.get(source);
  const AdPayload& base = stored_base != nullptr ? *stored_base : *rec.ad;
  if (base.version == base_full_version) {
#ifdef ASAP_AUDIT_FORCE_ON
    // Oracle: the toggles really do rebuild `next` from the remembered
    // base — the wire body and the canonical payload must agree.
    bloom::BloomFilter rebuilt = base.filter;
    for (const auto p : toggles) rebuilt.toggle(p);
    ASAP_CHECK(rebuilt == next->filter);
#else
    (void)toggles;
#endif
    ASAP_DCHECK(next->source == source);
    advance(idx, stored_base, next);
    rec.touch = now;
    return UpdateOutcome::kApplied;
  }
  erase_at(idx);  // base lost or mismatched: re-learn from a full ad
  return UpdateOutcome::kInvalidated;
}

bool AdCache::erase(NodeId source) {
  const std::uint32_t* idxp = pos_.find(source);
  if (idxp == nullptr) return false;
  erase_at(*idxp);
  return true;
}

bool AdCache::erase_stale(NodeId source, double now) {
  if (readmit_backoff_ > 0.0) struck_[source] = now + readmit_backoff_;
  return erase(source);
}

bool AdCache::readmit_blocked(NodeId source, double now) const {
  const double* until = struck_.find(source);
  return until != nullptr && now < *until;
}

void AdCache::erase_at(std::size_t idx) {
  ASAP_DCHECK(idx < records_.size());
  const NodeId src = records_[idx].ad->source;
  fold_count_remove(prefilter_[idx]);
  pos_.erase(src);
  // A re-admitted source starts fresh, like a new entry.
  bases_.erase(src);
  strikes_.erase(src);
  standing_.erase(src);
  const std::size_t last = records_.size() - 1;
  if (idx != last) {
    // Swap-with-back across both arrays, then repoint the moved source's
    // index — the arrays and pos_ must never disagree.
    records_[idx] = std::move(records_[last]);
    prefilter_[idx] = prefilter_[last];
    pos_[records_[idx].ad->source] = static_cast<std::uint32_t>(idx);
  }
  records_.pop_back();
}

AdCache::Entry AdCache::entry_at(std::size_t idx) const {
  const Record& rec = records_[idx];
  const NodeId src = rec.ad->source;
  AdPayloadPtr base = bases_.find(src);
  if (!base) base = rec.ad;
  const std::uint32_t* strikes = strikes_.find(src);
  const Standing* standing = standing_.find(src);
  const Standing st = standing != nullptr ? *standing : Standing{};
  return Entry{rec.ad, std::move(base), rec.touch,
               strikes != nullptr ? *strikes : 0, st.trust,
               st.strike_chain_end};
}

std::optional<AdCache::Entry> AdCache::find(NodeId source) const {
  const std::uint32_t* idxp = pos_.find(source);
  if (idxp == nullptr) return std::nullopt;
  return entry_at(*idxp);
}

void AdCache::touch(NodeId source, double now) {
  const std::uint32_t* idxp = pos_.find(source);
  if (idxp != nullptr) records_[*idxp].touch = now;
}

std::uint32_t AdCache::record_timeout(NodeId source) {
  if (!pos_.contains(source)) return 0;
  return ++strikes_[source];
}

void AdCache::reset_timeouts(NodeId source) { strikes_.erase(source); }

std::uint32_t AdCache::record_timeout(NodeId source, double chain_start,
                                      double chain_end) {
  if (!pos_.contains(source)) return 0;
  if (strike_per_chain_) {
    Standing& st = standing_[source];
    if (chain_start < st.strike_chain_end) {
      // This chain overlaps the one that produced the last counted
      // strike: same evidence window, no double-count.
      const std::uint32_t* strikes = strikes_.find(source);
      return strikes != nullptr ? *strikes : 0;
    }
    st.strike_chain_end = chain_end;
  }
  return ++strikes_[source];
}

void AdCache::set_trust_params(double reward, double decay, double threshold,
                               double backoff) {
  trust_enabled_ = true;
  trust_reward_ = reward;
  trust_decay_ = decay;
  trust_threshold_ = threshold;
  quarantine_backoff_ = backoff;
}

// Standing marks exist only for cached sources (erase_at drops them), so
// a source without one is either uncached or at the defaults.
double AdCache::trust_of(NodeId source) const {
  if (!trust_enabled_) return 1.0;
  const Standing* st = standing_.find(source);
  return st == nullptr ? 1.0 : st->trust;
}

void AdCache::record_reward(NodeId source) {
  if (!trust_enabled_) return;
  // Full trust is the reward's fixed point: only a mark can move.
  if (Standing* st = standing_.find(source)) {
    st->trust += trust_reward_ * (1.0 - st->trust);
  }
}

bool AdCache::record_strike(NodeId source, double now) {
  if (!trust_enabled_) return false;
  Standing* st = standing_.find(source);
  if (st == nullptr) {
    if (!pos_.contains(source)) return false;
    st = &standing_[source];
  }
  st->trust *= trust_decay_;
  if (st->trust >= trust_threshold_) return false;
  quarantine_source(source, now);
  return true;
}

void AdCache::quarantine_source(NodeId source, double now) {
  // Block re-admission with exponential backoff per repeat offense (cap
  // the shift so the window stays finite), and drop the cached entry.
  Quarantine q;
  if (const Quarantine* prev = quar_.find(source)) q = *prev;
  const double scale =
      static_cast<double>(1ULL << std::min<std::uint32_t>(q.offenses, 6));
  q.until = now + quarantine_backoff_ * scale;
  ++q.offenses;
  quar_[source] = q;
  if (const std::uint32_t* idxp = pos_.find(source)) erase_at(*idxp);
}

bool AdCache::quarantined(NodeId source, double now) const {
  if (quar_.empty()) return false;
  const Quarantine* q = quar_.find(source);
  return q != nullptr && now < q->until;
}

std::uint64_t AdCache::memory_bytes() const {
  return records_.capacity() * (sizeof(Record) + sizeof(std::uint64_t)) +
         (fold_count_ ? sizeof(*fold_count_) : 0) + pos_.memory_bytes() +
         bases_.memory_bytes() + strikes_.memory_bytes() +
         standing_.memory_bytes() + struck_.memory_bytes() +
         quar_.memory_bytes();
}

void AdCache::evict_one(Rng& rng) {
  if (records_.empty()) return;
  // Sampled LRU: evict the stalest of up to 8 random entries.
  constexpr std::size_t kSamples = 8;
  if (records_.size() <= kSamples) {
    // The sample budget covers the whole cache: scan it exactly. Random
    // sampling here would draw duplicates and could miss the true LRU
    // entry (and would burn RNG draws for nothing).
    std::size_t victim = 0;
    for (std::size_t idx = 1; idx < records_.size(); ++idx) {
      if (records_[idx].touch < records_[victim].touch) victim = idx;
    }
    erase_at(victim);
    return;
  }
  std::size_t victim = rng.below(records_.size());
  double oldest = records_[victim].touch;
  for (std::size_t s = 1; s < kSamples; ++s) {
    const std::size_t idx = rng.below(records_.size());
    if (records_[idx].touch < oldest) {
      oldest = records_[idx].touch;
      victim = idx;
    }
  }
  erase_at(victim);
}

void AdCache::collect_matches(std::span<const KeywordId> terms,
                              std::vector<AdPayloadPtr>& out) const {
  out.clear();
  if (terms.empty()) return;
  for (const Record& rec : records_) {
    if (rec.ad->filter.contains_all(terms)) out.push_back(rec.ad);
  }
}

void AdCache::collect_for_reply(std::span<const KeywordId> terms,
                                const std::vector<TopicId>& interests,
                                std::uint32_t max_ads,
                                std::uint32_t max_topical,
                                std::vector<AdPayloadPtr>& out) const {
  out.clear();
  // Pass 1: ads that already satisfy the query terms.
  for (const Record& rec : records_) {
    if (out.size() >= max_ads) return;
    if (!terms.empty() && rec.ad->filter.contains_all(terms)) {
      out.push_back(rec.ad);
    }
  }
  // Pass 2: up to max_topical ads topically relevant to the requester.
  std::uint32_t topical = 0;
  for (const Record& rec : records_) {
    if (out.size() >= max_ads || topical >= max_topical) return;
    if (!terms.empty() && rec.ad->filter.contains_all(terms)) {
      continue;  // already included
    }
    if (topics_overlap(rec.ad->topics, interests)) {
      out.push_back(rec.ad);
      ++topical;
    }
  }
}

std::size_t AdCache::order_terms(
    const bloom::HashedQuery& query,
    std::array<std::uint8_t, kMaxOrderedTerms>& order) const {
  const std::size_t n = query.size();
  if (n > kMaxOrderedTerms) return 0;  // oversized query: natural order
  const auto keys = query.keys();
  std::array<std::uint32_t, kMaxOrderedTerms> selectivity{};
  for (std::size_t t = 0; t < n; ++t) {
    // At most bits[j] + all_ones entries have fold bit j, so the rarest
    // bit of the term's mask bounds how many entries the term can match.
    // all_ones adds to every bit alike, so the rarest bit is found on
    // `bits` alone. A null block reads as all-zero counts.
    std::uint64_t mask = keys[t].fold_mask();
    std::uint32_t s = ~0U;
    if (mask != 0 && fold_count_) {
      std::uint32_t rarest = ~0U;
      while (mask != 0) {
        const auto b = static_cast<std::size_t>(std::countr_zero(mask));
        rarest = std::min(rarest, fold_count_->bits[b]);
        mask &= mask - 1;
      }
      s = rarest + fold_count_->all_ones;
    } else if (mask != 0) {
      s = 0;
    }
    selectivity[t] = s;
    order[t] = static_cast<std::uint8_t>(t);
  }
  std::sort(order.begin(), order.begin() + n,
            [&selectivity](std::uint8_t a, std::uint8_t b) {
              if (selectivity[a] != selectivity[b]) {
                return selectivity[a] < selectivity[b];
              }
              return a < b;  // deterministic tie-break
            });
  return n;
}

void AdCache::collect_matches(const bloom::HashedQuery& query,
                              std::vector<AdPayloadPtr>& out) const {
  out.clear();
  if (!query.empty()) {
    std::array<std::uint8_t, kMaxOrderedTerms> order_buf;
    const std::size_t ordered = order_terms(query, order_buf);
    const std::span<const std::uint8_t> order{order_buf.data(), ordered};
    const std::uint64_t need = query.fold_mask_all();
    const bool prefilter_ok = query.params() == kCanonical;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (prefilter_ok && (prefilter_[i] & need) != need) continue;
      if (query.matches(records_[i].ad->filter, order)) {
        out.push_back(records_[i].ad);
      }
    }
  }
#ifdef ASAP_AUDIT_FORCE_ON
  // Oracle: the hashed scan must reproduce the legacy scan exactly,
  // including output order.
  std::vector<AdPayloadPtr> legacy;
  collect_matches(query.terms(), legacy);
  ASAP_CHECK(legacy == out);
#endif
}

void AdCache::collect_for_reply(const bloom::HashedQuery& query,
                                const std::vector<TopicId>& interests,
                                std::uint32_t max_ads,
                                std::uint32_t max_topical,
                                std::vector<AdPayloadPtr>& out) const {
  out.clear();
  std::array<std::uint8_t, kMaxOrderedTerms> order_buf;
  const std::size_t ordered = order_terms(query, order_buf);
  const std::span<const std::uint8_t> order{order_buf.data(), ordered};
  const std::uint64_t need = query.fold_mask_all();
  const bool prefilter_ok = query.params() == kCanonical;
  const auto matches = [&](std::size_t i) {
    if (prefilter_ok && (prefilter_[i] & need) != need) return false;
    return query.matches(records_[i].ad->filter, order);
  };
  // Pass 1: ads that already satisfy the query terms.
  bool truncated = false;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (out.size() >= max_ads) {
      truncated = true;
      break;
    }
    if (!query.empty() && matches(i)) out.push_back(records_[i].ad);
  }
  // Pass 2: up to max_topical ads topically relevant to the requester.
  if (!truncated) {
    const TopicMask wanted = topic_mask_of(interests);
    std::uint32_t topical = 0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (out.size() >= max_ads || topical >= max_topical) break;
      if (!query.empty() && matches(i)) continue;  // already included
      if ((records_[i].ad->topic_mask & wanted) != 0) {
        out.push_back(records_[i].ad);
        ++topical;
      }
    }
  }
#ifdef ASAP_AUDIT_FORCE_ON
  std::vector<AdPayloadPtr> legacy;
  collect_for_reply(query.terms(), interests, max_ads, max_topical, legacy);
  ASAP_CHECK(legacy == out);
#endif
}

}  // namespace asap::ads
