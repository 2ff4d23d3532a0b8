// Property tests for the AdCache hashed-query fast path: under random
// mutation sequences (put / patch / refresh / erase / evict / touch) the
// prefilter-accelerated scans must return exactly what the legacy
// hash-per-term scans return — same ads, same order — and the parallel
// SoA arrays must stay mutually consistent across swap-with-back erases.
// The sparse side state (delta base, strikes, trust marks) is checked
// against a per-source oracle, and a full cache against its byte budget.
#include "asap/ad_cache.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "bloom/hashed_query.hpp"

namespace asap::ads {
namespace {

AdPayloadPtr make_ad(NodeId src, std::uint32_t version,
                     const std::vector<KeywordId>& keys,
                     std::vector<TopicId> topics) {
  bloom::BloomFilter f;
  for (auto k : keys) f.insert(k);
  return make_payload(src, version, std::move(f), std::move(topics));
}

/// The index maps each entry's source to its own slot, and each slot's
/// prefilter word is its ad's fold.
void expect_index_exact(const AdCache& c, int step) {
  ASSERT_EQ(c.prefilters().size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    const auto e = c.entries()[i];
    const auto found = c.find(e.ad->source);
    ASSERT_TRUE(found) << "step " << step;
    ASSERT_EQ(&found->ad, &e.ad) << "step " << step;
    ASSERT_EQ(c.prefilters()[i], e.ad->filter.fold()) << "step " << step;
  }
}

TEST(AdCacheProperty, HashedScansMatchLegacyUnderRandomOps) {
  constexpr NodeId kSources = 96;    // 2x capacity: keeps eviction busy
  constexpr std::uint64_t kKeyPool = 64;  // small pool: queries really match
  const bloom::BloomParams params;
  AdCache c(48);
  Rng rng(123);
  std::map<NodeId, std::uint32_t> version;
  bloom::HashedQuery q;
  std::vector<AdPayloadPtr> legacy, hashed;

  const auto random_keys = [&rng]() {
    std::vector<KeywordId> keys;
    const std::uint64_t n = 1 + rng.below(5);
    for (std::uint64_t i = 0; i < n; ++i) {
      keys.push_back(static_cast<KeywordId>(rng.below(kKeyPool)));
    }
    return keys;
  };
  const auto random_topics = [&rng]() {
    return std::vector<TopicId>{static_cast<TopicId>(rng.below(4))};
  };

  double now = 0.0;
  for (int step = 0; step < 4'000; ++step) {
    now += 1.0;
    const NodeId src = static_cast<NodeId>(rng.below(kSources));
    switch (rng.below(6)) {
      case 0:
      case 1: {  // put, sometimes a stale re-put
        const std::uint32_t v =
            rng.below(4) == 0 ? version[src] : ++version[src];
        c.put(make_ad(src, std::max(v, 1u), random_keys(), random_topics()),
              now, rng);
        break;
      }
      case 2: {  // patch: usually against the cached base, sometimes stale
        const auto e = c.find(src);
        const std::uint32_t base =
            (e ? e->ad->version : version[src] + 1) +
            (rng.below(3) == 0 ? 1 : 0);
        const std::uint32_t next_v = base + 1;
        version[src] = std::max(version[src], next_v);
        c.apply_patch(src, base,
                      make_ad(src, next_v, random_keys(), random_topics()),
                      now);
        break;
      }
      case 3:  // refresh: matching, stale or newer at random
        c.on_refresh(src, version[src] + static_cast<std::uint32_t>(
                                              rng.below(3)),
                     now);
        break;
      case 4:
        c.erase(src);
        break;
      case 5:
        c.touch(src, now);
        break;
    }

    // SoA consistency: parallel arrays agree, the index survives every
    // swap-with-back, and each prefilter word is its entry's current fold.
    expect_index_exact(c, step);

    if (step % 7 != 0) continue;
    // Random query (0..3 terms, some absent from every filter) through
    // both scan paths: identical ads in identical order.
    std::vector<KeywordId> terms;
    for (std::uint64_t t = rng.below(4); t > 0; --t) {
      terms.push_back(static_cast<KeywordId>(rng.below(kKeyPool + 16)));
    }
    q.assign(terms, params);
    c.collect_matches(std::span<const KeywordId>(terms), legacy);
    c.collect_matches(q, hashed);
    ASSERT_EQ(legacy, hashed) << "step " << step;

    const std::vector<TopicId> interests{static_cast<TopicId>(rng.below(4))};
    const auto max_ads = static_cast<std::uint32_t>(1 + rng.below(12));
    const auto max_topical = static_cast<std::uint32_t>(rng.below(6));
    c.collect_for_reply(std::span<const KeywordId>(terms), interests,
                        max_ads, max_topical, legacy);
    c.collect_for_reply(q, interests, max_ads, max_topical, hashed);
    ASSERT_EQ(legacy, hashed) << "step " << step;
  }
}

/// What the map oracle expects the cache to hold for one source.
struct Expected {
  AdPayloadPtr ad;
  AdPayloadPtr base;
  double touch = 0.0;
  std::uint32_t strikes = 0;
  double trust = 1.0;
  double chain_end = -1.0;
};

void expect_entry(const AdCache& c, const std::map<NodeId, Expected>& oracle,
                  NodeId src, bool trust_on, int step) {
  const auto e = c.find(src);
  const auto it = oracle.find(src);
  ASSERT_EQ(e.has_value(), it != oracle.end())
      << "source " << src << " step " << step;
  if (!e) {
    ASSERT_EQ(c.trust_of(src), 1.0) << "source " << src << " step " << step;
    return;
  }
  const Expected& want = it->second;
  ASSERT_EQ(e->ad, want.ad) << "source " << src << " step " << step;
  ASSERT_EQ(e->base, want.base) << "source " << src << " step " << step;
  ASSERT_EQ(e->touch, want.touch) << "source " << src << " step " << step;
  ASSERT_EQ(e->timeout_strikes, want.strikes)
      << "source " << src << " step " << step;
  ASSERT_EQ(e->trust, want.trust) << "source " << src << " step " << step;
  ASSERT_EQ(e->strike_chain_end, want.chain_end)
      << "source " << src << " step " << step;
  ASSERT_EQ(c.trust_of(src), trust_on ? want.trust : 1.0)
      << "source " << src << " step " << step;
}

TEST(AdCacheProperty, IndexMapAgreesWithMapOracle) {
  // The FlatMap-backed source→index map and the sparse side maps (delta
  // base, strikes, trust marks) must track every source exactly like a
  // per-source oracle under random put / revisit / stale put / patch /
  // delta / refresh / erase / erase_stale / touch / both record_timeout
  // overloads / reset_timeouts / record_reward / record_strike (with
  // quarantine), with trust scoring and the strike-chain guard each off
  // and on. Capacity is sized so eviction never fires, which makes the
  // oracle's membership prediction exact.
  constexpr NodeId kSources = 200;
  constexpr double kReward = 0.3;
  constexpr double kDecay = 0.5;
  constexpr double kThreshold = 0.2;
  constexpr double kBackoff = 40.0;
  for (const bool trust_on : {false, true}) {
    for (const bool chain_guard : {false, true}) {
      SCOPED_TRACE(testing::Message() << "trust " << trust_on
                                      << " chain guard " << chain_guard);
      AdCache c(256);
      if (trust_on) c.set_trust_params(kReward, kDecay, kThreshold, kBackoff);
      c.set_strike_per_chain(chain_guard);
      Rng rng(99);
      std::map<NodeId, Expected> oracle;
      std::map<NodeId, std::uint32_t> version;  // last published version
      struct Sentence {
        double until = 0.0;
        std::uint32_t offenses = 0;
      };
      std::map<NodeId, Sentence> quarantine;
      std::uint64_t based = 0, struck = 0, chained = 0, quarantines = 0;
      double now = 0.0;
      for (int step = 0; step < 10'000; ++step) {
        now += 1.0;
        const NodeId src = static_cast<NodeId>(rng.below(kSources));
        const auto it = oracle.find(src);
        Expected* want = it == oracle.end() ? nullptr : &it->second;
        const auto next_ad = [&] {
          const std::uint32_t v = ++version[src];
          return make_ad(src, v, {static_cast<KeywordId>(src), v},
                         {static_cast<TopicId>(src % 4)});
        };
        switch (rng.below(14)) {
          case 0:
          case 1: {  // a newer full ad: stored unless quarantined
            const AdPayloadPtr ad = next_ad();
            const auto q = quarantine.find(src);
            const bool blocked =
                q != quarantine.end() && now < q->second.until;
            const auto r = c.put(ad, now, rng);
            ASSERT_EQ(r.stored, !blocked) << "step " << step;
            ASSERT_FALSE(r.evicted);
            if (blocked) break;
            ASSERT_EQ(r.readmitted, want == nullptr && q != quarantine.end());
            if (want == nullptr) want = &oracle[src];
            want->ad = ad;
            want->base = ad;
            want->touch = now;
            want->strikes = 0;
            break;
          }
          case 2: {  // revisit: the cached payload again re-bases on it
            if (want == nullptr) break;
            ASSERT_TRUE(c.put(want->ad, now, rng).stored);
            want->base = want->ad;
            want->touch = now;
            want->strikes = 0;
            break;
          }
          case 3: {  // a stale full ad only touches
            if (want == nullptr || want->ad->version < 2) break;
            const auto old = make_ad(src, want->ad->version - 1, {},
                                     {static_cast<TopicId>(src % 4)});
            ASSERT_FALSE(c.put(old, now, rng).stored);
            want->touch = now;
            break;
          }
          case 4: {  // patch against the cached version keeps the base
            const AdPayloadPtr next = next_ad();
            if (want == nullptr) {
              ASSERT_EQ(c.apply_patch(src, 1, next, now),
                        UpdateOutcome::kMissing);
              break;
            }
            ASSERT_EQ(c.apply_patch(src, want->ad->version, next, now),
                      UpdateOutcome::kApplied);
            want->ad = next;
            want->touch = now;
            break;
          }
          case 5: {  // delta against the remembered full ad
            if (want == nullptr) break;
            const AdPayloadPtr next = next_ad();
            const auto toggles =
                bloom::BloomFilter::diff(want->base->filter, next->filter);
            ASSERT_EQ(c.apply_delta(src, want->base->version, toggles, next,
                                    now),
                      UpdateOutcome::kApplied);
            want->ad = next;
            want->touch = now;
            break;
          }
          case 6:  // refresh at the cached version
            if (want == nullptr) break;
            ASSERT_EQ(c.on_refresh(src, want->ad->version, now),
                      UpdateOutcome::kApplied);
            want->touch = now;
            break;
          case 7: {  // erase, or erase_stale with zero backoff
            const bool erased =
                rng.below(2) == 0 ? c.erase(src) : c.erase_stale(src, now);
            ASSERT_EQ(erased, want != nullptr);
            oracle.erase(src);
            break;
          }
          case 8:
            c.touch(src, now);
            if (want != nullptr) want->touch = now;
            break;
          case 9:
            ASSERT_EQ(c.record_timeout(src),
                      want != nullptr ? ++want->strikes : 0u);
            break;
          case 10: {  // chain-aware timeout; a long chain overlaps later ones
            const double start = now - static_cast<double>(rng.below(6));
            const double end =
                start + 1.0 + static_cast<double>(rng.below(2) * 5'000);
            std::uint32_t expect = 0;
            if (want != nullptr) {
              if (chain_guard && start < want->chain_end) {
                expect = want->strikes;
                ++chained;
              } else {
                if (chain_guard) want->chain_end = end;
                expect = ++want->strikes;
              }
            }
            ASSERT_EQ(c.record_timeout(src, start, end), expect);
            break;
          }
          case 11:
            c.reset_timeouts(src);
            if (want != nullptr) want->strikes = 0;
            break;
          case 12:
            c.record_reward(src);
            if (want != nullptr && trust_on) {
              want->trust += kReward * (1.0 - want->trust);
            }
            break;
          default: {  // strike: decays trust, may quarantine
            bool expect = false;
            if (want != nullptr && trust_on) {
              want->trust *= kDecay;
              if (want->trust < kThreshold) {
                Sentence& q = quarantine[src];
                q.until = now + kBackoff * static_cast<double>(
                                               1ULL << std::min<std::uint32_t>(
                                                   q.offenses, 6));
                ++q.offenses;
                oracle.erase(src);
                expect = true;
                ++quarantines;
              }
            }
            ASSERT_EQ(c.record_strike(src, now), expect);
            break;
          }
        }
        ASSERT_EQ(c.size(), oracle.size()) << "step " << step;
        expect_entry(c, oracle, src, trust_on, step);
        const auto q = quarantine.find(src);
        ASSERT_EQ(c.quarantined(src, now),
                  q != quarantine.end() && now < q->second.until);
        if (const auto o = oracle.find(src); o != oracle.end()) {
          based += o->second.base != o->second.ad;
          struck += o->second.strikes > 0;
        }
        if (step % 97 != 0) continue;
        for (NodeId s = 0; s < kSources; ++s) {
          expect_entry(c, oracle, s, trust_on, step);
        }
        expect_index_exact(c, step);
      }
      // The sequence really reached the side state it claims to cover.
      EXPECT_GT(based, 1'000u);
      EXPECT_GT(struck, 1'000u);
      if (chain_guard) {
        EXPECT_GT(chained, 20u);
      }
      if (trust_on) {
        EXPECT_GT(quarantines, 20u);
      }
    }
  }
}

/// Fresh payload with the same content: a cache that receives it cannot
/// recognise a revisit by pointer, so put() always runs its full path.
AdPayloadPtr clone(const AdPayloadPtr& ad) {
  return make_payload(ad->source, ad->version, ad->filter, ad->topics);
}

/// Equality of two entries whose payloads are equal in content but may be
/// different objects.
void expect_same_entry(const AdCache::Entry& a, const AdCache::Entry& b,
                       int step) {
  ASSERT_EQ(a.ad->source, b.ad->source) << "step " << step;
  ASSERT_EQ(a.ad->version, b.ad->version) << "step " << step;
  ASSERT_EQ(a.ad->filter, b.ad->filter) << "step " << step;
  ASSERT_EQ(a.ad->topics, b.ad->topics) << "step " << step;
  ASSERT_EQ(a.base->version, b.base->version) << "step " << step;
  ASSERT_EQ(a.touch, b.touch) << "step " << step;
  ASSERT_EQ(a.timeout_strikes, b.timeout_strikes) << "step " << step;
  ASSERT_EQ(a.trust, b.trust) << "step " << step;
  ASSERT_EQ(a.strike_chain_end, b.strike_chain_end) << "step " << step;
}

void expect_same_put(const AdCache::PutResult& a, const AdCache::PutResult& b,
                     int step) {
  ASSERT_EQ(a.stored, b.stored) << "step " << step;
  ASSERT_EQ(a.evicted, b.evicted) << "step " << step;
  ASSERT_EQ(a.readmitted, b.readmitted) << "step " << step;
  ASSERT_EQ(a.implausible, b.implausible) << "step " << step;
}

/// Drives two caches through one random ingest sequence: `fast` receives
/// the shared canonical payloads, so walk revisits take put()'s revisit
/// branch, while `ref` receives a fresh copy of every payload and always
/// takes the full path. Every result, entry, prefilter word and scan order
/// must agree. Filters are a mix of sparse (partial fold), dense
/// (all-ones fold) and foreign-geometry (always-scan) ones.
void run_ingest_equivalence(double fill_gate, std::uint64_t seed) {
  constexpr NodeId kSources = 80;
  constexpr std::uint64_t kKeyPool = 64;
  const bloom::BloomParams params;
  AdCache fast(48), ref(48);  // below kSources: eviction stays busy
  for (AdCache* c : {&fast, &ref}) {
    c->set_fill_gate(fill_gate);
    c->set_readmit_backoff(3.0);
  }
  Rng draw(seed), fast_rng(seed + 1), ref_rng(seed + 1);
  std::map<NodeId, AdPayloadPtr> latest;  // last published payload
  std::map<NodeId, AdPayloadPtr> base;    // last full payload (delta base)
  std::map<NodeId, std::vector<AdPayloadPtr>> history;
  bloom::HashedQuery q;
  std::vector<AdPayloadPtr> fast_out, ref_out;
  std::uint64_t revisits = 0, all_ones = 0, partial = 0;

  const auto publish = [&](NodeId src) {
    const std::uint32_t v = latest.count(src) ? latest[src]->version + 1 : 1;
    std::vector<TopicId> topics{static_cast<TopicId>(draw.below(4))};
    AdPayloadPtr ad;
    switch (draw.below(5)) {
      case 0: {  // dense: every fold bit set
        bloom::BloomFilter f;
        for (int k = 0; k < 400; ++k) {
          f.insert(static_cast<KeywordId>(draw.below(100'000)));
        }
        ad = make_payload(src, v, std::move(f), std::move(topics));
        break;
      }
      case 1: {  // foreign geometry: prefilter is all-ones
        bloom::BloomFilter f(bloom::BloomParams::for_capacity(64, 4));
        f.insert(static_cast<KeywordId>(draw.below(kKeyPool)));
        ad = make_payload(src, v, std::move(f), std::move(topics));
        break;
      }
      default: {  // sparse
        std::vector<KeywordId> keys;
        for (std::uint64_t n = 1 + draw.below(5); n > 0; --n) {
          keys.push_back(static_cast<KeywordId>(draw.below(kKeyPool)));
        }
        ad = make_ad(src, v, keys, std::move(topics));
        break;
      }
    }
    latest[src] = ad;
    history[src].push_back(ad);
    return ad;
  };

  double now = 0.0;
  for (int step = 0; step < 6'000; ++step) {
    now += 0.5;
    const NodeId src = static_cast<NodeId>(draw.below(kSources));
    switch (draw.below(10)) {
      case 0:
      case 1: {  // newer full version
        const AdPayloadPtr ad = publish(src);
        base[src] = ad;
        expect_same_put(fast.put(ad, now, fast_rng),
                        ref.put(clone(ad), now, ref_rng), step);
        break;
      }
      case 2:
      case 3:
      case 4: {  // same-payload revisit (an ad walk coming back)
        if (!latest.count(src)) break;
        const AdPayloadPtr& ad = latest[src];
        if (const auto e = fast.find(src); e && e->ad == ad && e->base == ad) {
          ++revisits;
        }
        expect_same_put(fast.put(ad, now, fast_rng),
                        ref.put(clone(ad), now, ref_rng), step);
        break;
      }
      case 5: {  // stale re-put of an older version
        if (!history.count(src)) break;
        const auto& h = history[src];
        const AdPayloadPtr& ad = h[draw.below(h.size())];
        expect_same_put(fast.put(ad, now, fast_rng),
                        ref.put(clone(ad), now, ref_rng), step);
        break;
      }
      case 6: {  // patch against the cached version (sometimes stale)
        const auto e = fast.find(src);
        if (!e || !latest.count(src)) break;
        const std::uint32_t from =
            e->ad->version + (draw.below(3) == 0 ? 1 : 0);
        const AdPayloadPtr next = publish(src);
        ASSERT_EQ(fast.apply_patch(src, from, next, now),
                  ref.apply_patch(src, from, clone(next), now))
            << "step " << step;
        break;
      }
      case 7: {  // delta against the last full ad
        if (!base.count(src)) break;
        const AdPayloadPtr& b = base[src];
        const AdPayloadPtr next = publish(src);
        const auto toggles =
            b->filter.params() == next->filter.params()
                ? bloom::BloomFilter::diff(b->filter, next->filter)
                : std::vector<std::uint32_t>{};
        if (b->filter.params() != next->filter.params()) {
          // A geometry change cannot ship as a delta: re-base instead.
          base[src] = next;
          expect_same_put(fast.put(next, now, fast_rng),
                          ref.put(clone(next), now, ref_rng), step);
          break;
        }
        ASSERT_EQ(fast.apply_delta(src, b->version, toggles, next, now),
                  ref.apply_delta(src, b->version, toggles, clone(next), now))
            << "step " << step;
        break;
      }
      case 8: {  // confirm timeouts (a revisit must clear them), then
                 // sometimes a stale strike-out with re-admit backoff
        ASSERT_EQ(fast.record_timeout(src), ref.record_timeout(src));
        if (draw.below(3) == 0) {
          ASSERT_EQ(fast.erase_stale(src, now), ref.erase_stale(src, now));
        }
        break;
      }
      default:
        ASSERT_EQ(fast.on_refresh(src, latest.count(src)
                                           ? latest[src]->version
                                           : 1,
                                  now),
                  ref.on_refresh(src, latest.count(src)
                                          ? latest[src]->version
                                          : 1,
                                 now));
        break;
    }

    ASSERT_EQ(fast.size(), ref.size()) << "step " << step;
    ASSERT_EQ(std::vector<std::uint64_t>(fast.prefilters().begin(),
                                         fast.prefilters().end()),
              std::vector<std::uint64_t>(ref.prefilters().begin(),
                                         ref.prefilters().end()))
        << "step " << step;
    for (std::size_t i = 0; i < fast.entries().size(); ++i) {
      expect_same_entry(fast.entries()[i], ref.entries()[i], step);
      const AdPayload& ad = *fast.entries()[i].ad;
      const std::uint64_t want =
          ad.filter.params() == params ? ad.filter.fold() : ~0ULL;
      ASSERT_EQ(fast.prefilters()[i], want) << "step " << step;
      if (want == ~0ULL) {
        ++all_ones;
      } else {
        ++partial;
      }
    }

    if (step % 5 != 0) continue;
    std::vector<KeywordId> terms;
    for (std::uint64_t t = 1 + draw.below(3); t > 0; --t) {
      terms.push_back(static_cast<KeywordId>(draw.below(kKeyPool + 16)));
    }
    q.assign(terms, params);
    fast.collect_matches(q, fast_out);
    ref.collect_matches(q, ref_out);
    ASSERT_EQ(fast_out.size(), ref_out.size()) << "step " << step;
    for (std::size_t i = 0; i < fast_out.size(); ++i) {
      ASSERT_EQ(fast_out[i]->source, ref_out[i]->source) << "step " << step;
      ASSERT_EQ(fast_out[i]->version, ref_out[i]->version) << "step " << step;
    }
  }
  // The sequence really exercised what it claims to.
  EXPECT_GT(revisits, 500u);
  EXPECT_GT(all_ones, 10'000u);
  EXPECT_GT(partial, 10'000u);
}

TEST(AdCacheProperty, RevisitFastPathMatchesFullPathWithGateOff) {
  run_ingest_equivalence(0.0, 31);
}

TEST(AdCacheProperty, RevisitFastPathMatchesFullPathWithGateOn) {
  // 0.05 fill: every dense filter is implausible, sparse ones are not.
  run_ingest_equivalence(0.05, 32);
}

TEST(AdCacheProperty, EvictionKeepsIndexExactAtCapacity) {
  // Over-capacity insert load: the cache may evict whichever sampled-LRU
  // victim it likes, but size must pin at capacity and the index must
  // keep describing exactly the surviving entries.
  constexpr std::uint32_t kCapacity = 32;
  AdCache c(kCapacity);
  Rng rng(5);
  for (int step = 0; step < 5'000; ++step) {
    const NodeId src = static_cast<NodeId>(rng.below(500));
    c.put(make_ad(src, 1, {static_cast<KeywordId>(src % 64)}, {0}),
          static_cast<double>(step), rng);
    ASSERT_LE(c.size(), kCapacity);
    expect_index_exact(c, step);
  }
  EXPECT_EQ(c.size(), kCapacity);
}

TEST(AdCacheProperty, EmptyCacheFootprintSupportsMillionNodeWorlds) {
  // A million-node world keeps one AdCache per peer; an idle cache must
  // own (almost) no heap. The SoA arrays, every FlatMap and the lazy
  // fold-count array all start unallocated.
  const AdCache c(1'500);
  EXPECT_EQ(c.memory_bytes(), 0u);
  EXPECT_LT(sizeof(AdCache), 200u);
}

TEST(AdCacheProperty, FullCacheOwnsAtMost40BytesPerEntry) {
  // A full cache owns a 16-byte record and an 8-byte prefilter word per
  // entry plus its index; neither array reserves past capacity(), so
  // further puts at capacity (evictions) never grow the footprint.
  constexpr std::uint32_t kCapacity = 1'500;
  AdCache c(kCapacity);
  Rng rng(11);
  NodeId next = 0;
  for (; next < kCapacity; ++next) {
    c.put(make_ad(next, 1, {static_cast<KeywordId>(next)}, {0}), 1.0, rng);
  }
  ASSERT_EQ(c.size(), kCapacity);
  const std::uint64_t full = c.memory_bytes();
  EXPECT_LE(full, 40u * kCapacity);
  for (int i = 0; i < 3'000; ++i, ++next) {
    c.put(make_ad(next, 1, {static_cast<KeywordId>(next)}, {0}), 2.0, rng);
  }
  EXPECT_EQ(c.size(), kCapacity);
  EXPECT_EQ(c.memory_bytes(), full);
}

TEST(AdCacheProperty, ForeignGeometryEntriesAreNeverPrefilteredOut) {
  // An entry whose filter uses a different geometry cannot be folded into
  // a meaningful prefilter; it must be marked always-scan (~0) and still
  // match via the legacy per-term fallback.
  AdCache c(10);
  Rng rng(7);
  c.put(make_ad(1, 1, {5}, {0}), 1.0, rng);
  bloom::BloomFilter foreign(bloom::BloomParams::for_capacity(64, 4));
  foreign.insert(5);
  c.put(make_payload(2, 1, std::move(foreign), std::vector<TopicId>{0}), 1.0,
        rng);
  ASSERT_EQ(c.size(), 2u);
  for (std::size_t i = 0; i < c.entries().size(); ++i) {
    if (c.entries()[i].ad->source == 2) {
      EXPECT_EQ(c.prefilters()[i], ~0ULL);
    } else {
      EXPECT_EQ(c.prefilters()[i], c.entries()[i].ad->filter.fold());
    }
  }

  const std::vector<KeywordId> terms{5};
  const bloom::HashedQuery q(terms, bloom::BloomParams{});
  std::vector<AdPayloadPtr> legacy, hashed;
  c.collect_matches(std::span<const KeywordId>(terms), legacy);
  c.collect_matches(q, hashed);
  EXPECT_EQ(legacy, hashed);
  ASSERT_EQ(hashed.size(), 2u);
}

}  // namespace
}  // namespace asap::ads
