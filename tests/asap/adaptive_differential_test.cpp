// Differential test for the adaptive/delta advertisement paths (DESIGN.md
// §13): for every fault preset (none / churn / lossy / burst) and every ad
// variant (vanilla full+patch, adaptive packed frames, delta-vs-full-base),
// a cacher that reconstructs filters purely from decoded wire bytes must
// end every ad round bit-identical to the canonical AdCache state.
//
// The shadow reconstruction matters because the canonical payloads are
// shared pointers: comparing entry.ad->filter against itself would be
// trivially true. Here the shadow filter is rebuilt from what actually
// crossed the wire — full-ad bodies, patch/delta toggle lists — so any
// drift between the toggle encoding, the version discipline, or the
// delta-base bookkeeping and the canonical state fails the test.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "asap/ad_cache.hpp"
#include "asap/advertiser.hpp"
#include "common/rng.hpp"
#include "wire/messages.hpp"

namespace asap::ads {
namespace {

enum class Variant { kVanilla, kAdaptive, kDelta };
enum class FaultPreset { kNone, kChurn, kLossy, kBurst };

constexpr std::size_t kSources = 12;
constexpr int kRounds = 120;
constexpr std::size_t kPatchThreshold = 64;  // toggles; above -> full ad

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kVanilla: return "vanilla";
    case Variant::kAdaptive: return "adaptive";
    case Variant::kDelta: return "delta";
  }
  return "?";
}

const char* preset_name(FaultPreset p) {
  switch (p) {
    case FaultPreset::kNone: return "none";
    case FaultPreset::kChurn: return "churn";
    case FaultPreset::kLossy: return "lossy";
    case FaultPreset::kBurst: return "burst";
  }
  return "?";
}

// The cacher side: canonical AdCache plus per-source filters reconstructed
// exclusively from decoded wire messages.
struct Cacher {
  AdCache cache;
  Rng rng{55};
  std::map<NodeId, bloom::BloomFilter> shadow;       // current filter
  std::map<NodeId, bloom::BloomFilter> shadow_base;  // last full ad's filter
  std::map<NodeId, std::uint32_t> shadow_version;

  void drop(NodeId src) {
    shadow.erase(src);
    shadow_base.erase(src);
    shadow_version.erase(src);
  }

  void apply(const wire::DecodedAd& d, const AdPayloadPtr& payload,
             double now) {
    const NodeId src = d.header.source;
    switch (d.header.kind) {
      case AdKind::kFull: {
        const auto res = cache.put(payload, now, rng);
        ASSERT_TRUE(d.filter.has_value());
        if (res.stored) {
          shadow[src] = *d.filter;
          shadow_base[src] = *d.filter;
          shadow_version[src] = d.header.version;
        }
        break;
      }
      case AdKind::kPatch: {
        const auto out = cache.apply_patch(src, d.base_version, payload, now);
        if (out == UpdateOutcome::kApplied) {
          ASSERT_TRUE(shadow.count(src));
          shadow[src].apply_toggles(d.toggles);
          shadow_version[src] = d.header.version;
        } else if (out == UpdateOutcome::kInvalidated) {
          drop(src);
        }
        break;
      }
      case AdKind::kDelta: {
        const auto out =
            cache.apply_delta(src, d.base_version, d.toggles, payload, now);
        if (out == UpdateOutcome::kApplied) {
          // Deltas toggle against the last FULL ad, not the previous
          // version — reconstruct from the remembered full-ad filter.
          ASSERT_TRUE(shadow_base.count(src));
          bloom::BloomFilter next = shadow_base[src];
          next.apply_toggles(d.toggles);
          shadow[src] = std::move(next);
          shadow_version[src] = d.header.version;
        } else if (out == UpdateOutcome::kInvalidated) {
          drop(src);
        }
        break;
      }
      case AdKind::kRefresh: {
        const auto out = cache.on_refresh(src, d.header.version, now);
        if (out == UpdateOutcome::kInvalidated) drop(src);
        break;
      }
      default:
        FAIL() << "unexpected ad kind";
    }
  }

  // The differential gate: every cached entry's canonical filter must be
  // bit-identical to the wire-reconstructed shadow.
  void check(Variant v, FaultPreset p, int round) const {
    for (const auto& e : cache.entries()) {
      const NodeId src = e.ad->source;
      SCOPED_TRACE(testing::Message()
                   << variant_name(v) << "/" << preset_name(p) << " round "
                   << round << " source " << src);
      auto it = shadow.find(src);
      ASSERT_NE(it, shadow.end()) << "cached entry with no shadow";
      EXPECT_EQ(it->second, e.ad->filter)
          << "wire-reconstructed filter diverged from canonical state";
      EXPECT_EQ(shadow_version.at(src), e.ad->version);
    }
  }
};

// One advertisement from one source this round, already encoded.
struct Outgoing {
  AdPayloadPtr payload;  // canonical payload (what the sim hands around)
  std::vector<std::uint8_t> bytes;
};

trace::Document random_doc(Rng& rng) {
  std::vector<KeywordId> kws;
  const std::uint64_t n = 1 + rng.below(4);
  for (std::uint64_t i = 0; i < n; ++i) {
    kws.push_back(static_cast<KeywordId>(rng.below(100'000)));
  }
  return trace::Document{static_cast<TopicId>(rng.below(8)), std::move(kws)};
}

void run_combo(Variant variant, FaultPreset preset) {
  Rng rng(0xD1FFu * (static_cast<std::uint64_t>(variant) * 7 +
                     static_cast<std::uint64_t>(preset) + 3));
  std::vector<Advertiser> sources;
  std::vector<trace::Document> corpus;
  std::vector<std::vector<DocId>> docs(kSources);  // ids into corpus
  sources.reserve(kSources);
  for (std::size_t s = 0; s < kSources; ++s) {
    sources.emplace_back(static_cast<NodeId>(s + 1));
  }

  Cacher cacher;
  cacher.cache.set_readmit_backoff(preset == FaultPreset::kChurn ? 3.0 : 0.0);

  for (int round = 1; round <= kRounds; ++round) {
    const double now = static_cast<double>(round);

    // --- content churn at the sources -----------------------------------
    for (std::size_t s = 0; s < kSources; ++s) {
      if (rng.below(3) == 0) {
        corpus.push_back(random_doc(rng));
        docs[s].push_back(static_cast<DocId>(corpus.size() - 1));
        sources[s].add_document(corpus.back());
      }
      if (!docs[s].empty() && rng.below(6) == 0) {
        const auto victim = rng.below(docs[s].size());
        const DocId removed = docs[s][victim];
        docs[s].erase(docs[s].begin() +
                      static_cast<std::ptrdiff_t>(victim));
        sources[s].remove_document(corpus[removed], docs[s], corpus);
      }
    }

    // --- each source decides what to ship this round ---------------------
    std::vector<Outgoing> mail;
    for (std::size_t s = 0; s < kSources; ++s) {
      Advertiser& adv = sources[s];
      if (!adv.has_content()) continue;
      const bool force_full = rng.below(8) == 0;  // periodic re-announce
      if (!adv.has_advertised() || force_full) {
        auto payload = adv.publish_full();
        mail.push_back({payload, wire::encode_full_ad(*payload)});
        continue;
      }
      if (!adv.dirty()) {
        if (rng.below(3) == 0) {  // refresh beacon
          mail.push_back(
              {adv.payload(), wire::encode_refresh_ad(*adv.payload())});
        }
        continue;
      }
      if (variant == Variant::kDelta) {
        const auto toggles = adv.pending_delta();
        if (toggles.size() > kPatchThreshold) {
          auto payload = adv.publish_full();
          mail.push_back({payload, wire::encode_full_ad(*payload)});
        } else {
          const std::uint32_t base = adv.base_version();
          auto payload = adv.publish_update();
          mail.push_back(
              {payload, wire::encode_delta_ad(*payload, base, toggles)});
        }
      } else {
        const auto toggles = adv.pending_patch();
        if (toggles.size() > kPatchThreshold) {
          auto payload = adv.publish_full();
          mail.push_back({payload, wire::encode_full_ad(*payload)});
        } else {
          const std::uint32_t prev = adv.version();
          auto payload = adv.publish_full();
          mail.push_back(
              {payload, wire::encode_patch_ad(*payload, prev, toggles)});
        }
      }
    }

    // --- fault model: drop messages before they reach the cacher ---------
    const bool burst_blackout =
        preset == FaultPreset::kBurst && (round / 10) % 3 == 2;
    std::vector<Outgoing> delivered;
    for (auto& m : mail) {
      bool drop = burst_blackout;
      if (preset == FaultPreset::kLossy && rng.below(4) == 0) drop = true;
      if (preset == FaultPreset::kChurn && rng.below(10) == 0) drop = true;
      if (!drop) delivered.push_back(std::move(m));
    }

    // --- delivery: adaptive packs one frame, others ship singles ---------
    if (variant == Variant::kAdaptive) {
      std::vector<wire::DecodedAd> singles;
      for (const auto& m : delivered) singles.push_back(wire::decode_ad(m.bytes));
      std::vector<wire::PackedItem> items;
      for (std::size_t i = 0; i < delivered.size(); ++i) {
        wire::PackedItem item;
        item.kind = singles[i].header.kind;
        item.ad = delivered[i].payload.get();
        item.base_version = singles[i].base_version;
        item.toggles = singles[i].toggles;
        items.push_back(item);
      }
      const auto frame = wire::encode_packed_frame(items);
      const auto decoded = wire::decode_packed_frame(frame);
      ASSERT_EQ(decoded.size(), delivered.size());
      for (std::size_t i = 0; i < decoded.size(); ++i) {
        cacher.apply(decoded[i], delivered[i].payload, now);
      }
    } else {
      for (const auto& m : delivered) {
        cacher.apply(wire::decode_ad(m.bytes), m.payload, now);
      }
    }

    // --- churn preset: stale-strike evictions with re-admit backoff ------
    if (preset == FaultPreset::kChurn && rng.below(5) == 0 &&
        cacher.cache.size() > 0) {
      const auto entries = cacher.cache.entries();
      const NodeId victim = entries[rng.below(entries.size())].ad->source;
      cacher.cache.erase_stale(victim, now);
      cacher.drop(victim);
    }

    cacher.check(variant, preset, round);
  }
}

class AdaptiveDifferential
    : public ::testing::TestWithParam<std::tuple<Variant, FaultPreset>> {};

TEST_P(AdaptiveDifferential, WireReconstructionMatchesCanonicalCache) {
  run_combo(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, AdaptiveDifferential,
    ::testing::Combine(::testing::Values(Variant::kVanilla, Variant::kAdaptive,
                                         Variant::kDelta),
                       ::testing::Values(FaultPreset::kNone, FaultPreset::kChurn,
                                         FaultPreset::kLossy,
                                         FaultPreset::kBurst)),
    [](const auto& p) {
      return std::string(variant_name(std::get<0>(p.param))) + "_" +
             preset_name(std::get<1>(p.param));
    });

}  // namespace
}  // namespace asap::ads
