// Property tests for the AdCache hashed-query fast path: under random
// mutation sequences (put / patch / refresh / erase / evict / touch) the
// prefilter-accelerated scans must return exactly what the legacy
// hash-per-term scans return — same ads, same order — and the parallel
// SoA arrays must stay mutually consistent across swap-with-back erases.
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
  return std::make_shared<const AdPayload>(src, version, std::move(f),
                                           std::move(topics));
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
        const auto* e = c.find(src);
        const std::uint32_t base =
            (e != nullptr ? e->ad->version : version[src] + 1) +
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
    ASSERT_EQ(c.sources().size(), c.entries().size());
    ASSERT_EQ(c.prefilters().size(), c.entries().size());
    for (std::size_t i = 0; i < c.entries().size(); ++i) {
      ASSERT_EQ(c.find(c.sources()[i]), &c.entries()[i]) << "step " << step;
      ASSERT_EQ(c.prefilters()[i], c.entries()[i].ad->filter.fold())
          << "step " << step;
    }

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

TEST(AdCacheProperty, IndexMapAgreesWithMapOracle) {
  // The FlatMap-backed source→index map must track membership exactly
  // like an ordered-map oracle under random put / revisit / erase /
  // erase_stale / touch — capacity is sized so eviction never fires,
  // which makes the oracle's membership prediction exact.
  constexpr NodeId kSources = 200;
  AdCache c(256);
  Rng rng(99);
  std::map<NodeId, std::uint32_t> oracle;  // source -> expected version
  std::map<NodeId, AdPayloadPtr> held;     // source -> cached payload
  double now = 0.0;
  for (int step = 0; step < 20'000; ++step) {
    now += 1.0;
    const NodeId src = static_cast<NodeId>(rng.below(kSources));
    switch (rng.below(6)) {
      case 0:
      case 1: {  // put a strictly newer version: always stored
        const std::uint32_t v = oracle.count(src) ? oracle[src] + 1 : 1;
        held[src] = make_ad(src, v, {static_cast<KeywordId>(src)},
                            {static_cast<TopicId>(src % 4)});
        const auto r = c.put(held[src], now, rng);
        EXPECT_TRUE(r.stored);
        EXPECT_FALSE(r.evicted);
        oracle[src] = v;
        break;
      }
      case 2: {  // revisit: the cached payload again, membership-neutral
        if (!oracle.count(src)) break;
        const auto r = c.put(held[src], now, rng);
        EXPECT_TRUE(r.stored);
        EXPECT_FALSE(r.evicted);
        ASSERT_EQ(c.find(src)->ad, held[src]);
        break;
      }
      case 3:
        EXPECT_EQ(c.erase(src), oracle.erase(src) > 0);
        break;
      case 4:  // zero re-admit backoff: erase_stale is a plain erase
        EXPECT_EQ(c.erase_stale(src, now), oracle.erase(src) > 0);
        break;
      default:
        c.touch(src, now);  // membership-neutral
        break;
    }
    ASSERT_EQ(c.size(), oracle.size());
    if (step % 251 != 0) continue;
    // Periodic deep check: every oracle entry findable at its version,
    // and the dense arrays list exactly the oracle's key set.
    for (const auto& [s, v] : oracle) {
      const auto* e = c.find(s);
      ASSERT_NE(e, nullptr) << "source " << s;
      EXPECT_EQ(e->ad->version, v);
    }
    for (const auto s : c.sources()) {
      ASSERT_TRUE(oracle.count(s)) << "stray source " << s;
    }
  }
}

/// Fresh payload with the same content: a cache that receives it cannot
/// recognise a revisit by pointer, so put() always runs its full path.
AdPayloadPtr clone(const AdPayloadPtr& ad) {
  return std::make_shared<const AdPayload>(ad->source, ad->version,
                                           ad->filter, ad->topics);
}

/// Equality of two entries whose payloads are equal in content but may be
/// different objects.
void expect_same_entry(const AdCache::Entry& a, const AdCache::Entry& b,
                       int step) {
  ASSERT_EQ(a.ad->source, b.ad->source) << "step " << step;
  ASSERT_EQ(a.ad->version, b.ad->version) << "step " << step;
  ASSERT_EQ(a.ad->filter, b.ad->filter) << "step " << step;
  ASSERT_EQ(a.ad->topics, b.ad->topics) << "step " << step;
  ASSERT_EQ(a.base == nullptr, b.base == nullptr) << "step " << step;
  if (a.base) {
    ASSERT_EQ(a.base->version, b.base->version) << "step " << step;
  }
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
        ad = std::make_shared<const AdPayload>(src, v, std::move(f),
                                               std::move(topics));
        break;
      }
      case 1: {  // foreign geometry: prefilter is all-ones
        bloom::BloomFilter f(bloom::BloomParams::for_capacity(64, 4));
        f.insert(static_cast<KeywordId>(draw.below(kKeyPool)));
        ad = std::make_shared<const AdPayload>(src, v, std::move(f),
                                               std::move(topics));
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
        if (const auto* e = fast.find(src); e != nullptr && e->ad == ad &&
                                            e->base == ad) {
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
        const auto* e = fast.find(src);
        if (e == nullptr || !latest.count(src)) break;
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
    ASSERT_EQ(std::vector<NodeId>(fast.sources().begin(),
                                  fast.sources().end()),
              std::vector<NodeId>(ref.sources().begin(), ref.sources().end()))
        << "step " << step;
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
    ASSERT_EQ(c.sources().size(), c.entries().size());
    for (std::size_t i = 0; i < c.entries().size(); ++i) {
      ASSERT_EQ(c.find(c.sources()[i]), &c.entries()[i]) << "step " << step;
    }
  }
  EXPECT_EQ(c.size(), kCapacity);
}

TEST(AdCacheProperty, EmptyCacheFootprintSupportsMillionNodeWorlds) {
  // A million-node world keeps one AdCache per peer; an idle cache must
  // own (almost) no heap. The SoA arrays, both FlatMaps and the lazy
  // fold-count array all start unallocated.
  const AdCache c(1'500);
  EXPECT_EQ(c.memory_bytes(), 0u);
  EXPECT_LT(sizeof(AdCache), 200u);
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
  c.put(std::make_shared<const AdPayload>(2, 1, std::move(foreign),
                                          std::vector<TopicId>{0}),
        1.0, rng);
  ASSERT_EQ(c.size(), 2u);
  for (std::size_t i = 0; i < c.entries().size(); ++i) {
    if (c.sources()[i] == 2) {
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
