#include "asap/asap_protocol.hpp"

#include <gtest/gtest.h>

#include <span>

#include "../support/test_world.hpp"
#include "faults/fault_config.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "obs/observer.hpp"

namespace asap::ads {
namespace {

using asap::testing::TestWorld;

AsapParams test_params(search::Scheme scheme = search::Scheme::kRandomWalk) {
  AsapParams p;
  p.scheme = scheme;
  p.budget_unit_m0 = 600;  // ~2x coverage of the 300-node test overlay
  p.refresh_period = 30.0;
  return p;
}

/// Warm the protocol: feed warm-up and drain the engine past it.
void warm(TestWorld& w, AsapProtocol& algo, Seconds warmup = 120.0) {
  algo.warm_up(warmup);
  w.engine.run_until(warmup);
}

trace::TraceEvent query_event(const TestWorld& w, NodeId requester,
                              NodeId holder, Seconds t) {
  const DocId d = w.live.docs(holder).front();
  const auto& kws = w.model.doc(d).keywords;
  trace::TraceEvent ev;
  ev.type = trace::TraceEventType::kQuery;
  ev.time = t;
  ev.node = requester;
  ev.doc = d;
  ev.num_terms = static_cast<std::uint8_t>(std::min<std::size_t>(3, kws.size()));
  for (std::uint8_t i = 0; i < ev.num_terms; ++i) ev.terms[i] = kws[i];
  return ev;
}

TEST(AsapProtocol, NamesFollowScheme) {
  TestWorld w;
  EXPECT_EQ(AsapProtocol(w.ctx, test_params(search::Scheme::kFlooding)).name(),
            "asap(fld)");
  EXPECT_EQ(
      AsapProtocol(w.ctx, test_params(search::Scheme::kRandomWalk)).name(),
      "asap(rw)");
  EXPECT_EQ(AsapProtocol(w.ctx, test_params(search::Scheme::kGsa)).name(),
            "asap(gsa)");
}

TEST(AsapProtocol, WarmupPopulatesCaches) {
  TestWorld w;
  AsapProtocol algo(w.ctx, test_params());
  warm(w, algo);
  EXPECT_GT(algo.counters().full_ads, 0u);
  std::uint64_t cached = 0;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    cached += algo.cache(n).size();
  }
  EXPECT_GT(cached, 500u) << "interest-matching ads must be cached";
  // Selective caching: every cached ad overlaps the cacher's interests.
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    const auto& cache = algo.cache(n);
    for (std::size_t i = 0; i < cache.entries().size(); ++i) {
      EXPECT_TRUE(topics_overlap(cache.entries()[i].ad->topics,
                                 w.model.interests(n)))
          << "node " << n << " cached an uninteresting ad from "
          << cache.entries()[i].ad->source;
    }
  }
}

TEST(AsapProtocol, FreeRidersDoNotAdvertise) {
  TestWorld w;
  AsapProtocol algo(w.ctx, test_params());
  warm(w, algo);
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    if (w.live.docs(n).empty()) {
      EXPECT_FALSE(algo.advertiser(n).has_advertised())
          << "free-rider " << n << " advertised";
    }
  }
}

TEST(AsapProtocol, SearchSucceedsFromLocalCacheAfterWarmup) {
  TestWorld w;
  AsapProtocol algo(w.ctx, test_params(search::Scheme::kFlooding));
  warm(w, algo);  // flooding delivery covers the whole overlay
  const NodeId holder = w.a_sharer();
  // A requester interested in the holder's class definitely cached the ad.
  const TopicId cls = w.model.doc(w.live.docs(holder).front()).topic;
  NodeId requester = kInvalidNode;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    if (n == holder) continue;
    const auto& ints = w.model.interests(n);
    if (std::find(ints.begin(), ints.end(), cls) != ints.end()) {
      requester = n;
      break;
    }
  }
  ASSERT_NE(requester, kInvalidNode);
  // Query by the document's unique (title) term so only replica holders
  // match; the first positive confirmation bounds the response time.
  trace::TraceEvent ev = query_event(w, requester, holder, 130.0);
  ev.num_terms = 1;
  ev.terms[0] = w.model.doc(ev.doc).keywords.back();
  algo.on_trace_event(ev);
  EXPECT_EQ(algo.stats().successes(), 1u);
  EXPECT_GT(algo.stats().local_hit_rate(), 0.0);
  EXPECT_GT(algo.stats().avg_response_time(), 0.0);
  // One-hop search: at most one confirmation round trip to this holder.
  const Seconds rtt = 2.0 * w.ctx.latency(requester, holder);
  EXPECT_LE(algo.stats().avg_response_time(), rtt + 1e-9);
}

TEST(AsapProtocol, SearchCostIsOrdersBelowFlooding) {
  TestWorld w;
  AsapProtocol algo(w.ctx, test_params(search::Scheme::kFlooding));
  warm(w, algo);
  const NodeId holder = w.a_sharer();
  algo.on_trace_event(query_event(w, holder == 0 ? 1 : 0, holder, 130.0));
  // Flooding the 300-node overlay costs ~2|E|*80 B ~ 120 KB; an ASAP search
  // is a few confirmation/ads-request messages.
  EXPECT_LT(algo.stats().avg_cost_bytes(), 30'000.0);
}

TEST(AsapProtocol, OfflineSourceConfirmationFailsOverToNeighbors) {
  TestWorld w;
  AsapProtocol algo(w.ctx, test_params(search::Scheme::kFlooding));
  warm(w, algo);
  const NodeId holder = w.a_sharer();
  // Take the only holder offline: search must fail but still be counted.
  w.live.set_online(holder, false);
  trace::TraceEvent ev = query_event(w, holder == 0 ? 1 : 0, holder, 130.0);
  // Use the doc's unique (last) keyword so only this holder can match.
  const auto& kws = w.model.doc(ev.doc).keywords;
  ev.num_terms = 1;
  ev.terms[0] = kws.back();
  algo.on_trace_event(ev);
  EXPECT_EQ(algo.stats().successes(), 0u);
  EXPECT_GT(algo.counters().ads_requests, 0u)
      << "a failed lookup must trigger the ads-request fallback";
  w.live.set_online(holder, true);
}

TEST(AsapProtocol, DeadEntriesArePrunedAfterFailedConfirmation) {
  // Both placements: the lookup's cache is the requester's own when flat,
  // its proxy's in the superpeer placement.
  for (const bool superpeer : {false, true}) {
    TestWorld w;
    AsapParams params = superpeer
                            ? AsapParams::superpeer(search::Scheme::kFlooding)
                            : test_params(search::Scheme::kFlooding);
    params.refresh_period = 30.0;
    AsapProtocol algo(w.ctx, params);
    warm(w, algo);
    const auto owner = [&](NodeId n) {
      return superpeer ? algo.proxy_of(n) : n;
    };
    const NodeId holder = w.a_sharer();
    w.live.set_online(holder, false);
    // Find a requester whose lookup cache holds the holder's ad; with
    // superpeers, a leaf, so the cache that must drop it is its proxy's.
    NodeId requester = kInvalidNode;
    for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
      if (n != holder && owner(n) != holder && !algo.is_superpeer(n) &&
          algo.cache(owner(n)).find(holder)) {
        requester = n;
        break;
      }
    }
    ASSERT_NE(requester, kInvalidNode) << algo.name();
    trace::TraceEvent ev = query_event(w, requester, holder, 130.0);
    const auto& kws = w.model.doc(ev.doc).keywords;
    ev.num_terms = 1;
    ev.terms[0] = kws.back();
    algo.on_trace_event(ev);
    EXPECT_FALSE(algo.cache(owner(requester)).find(holder))
        << algo.name() << ": entry for a dead source must be dropped";
    w.live.set_online(holder, true);
  }
}

TEST(AsapProtocol, ContentChangeEmitsPatchAd) {
  TestWorld w;
  AsapProtocol algo(w.ctx, test_params());
  warm(w, algo);
  const NodeId sharer = w.a_sharer();
  const auto patches_before = algo.counters().patch_ads;
  const auto version_before = algo.advertiser(sharer).version();
  // Mint a new document for the sharer and announce the addition.
  Rng mint_rng(5);
  // (const_cast: the test owns the world; ContentModel mutation mirrors
  // what the trace generator does mid-trace.)
  auto& model = const_cast<trace::ContentModel&>(w.model);
  const DocId fresh = model.mint_document(w.model.interests(sharer).front(),
                                          mint_rng);
  trace::TraceEvent ev;
  ev.type = trace::TraceEventType::kAddDoc;
  ev.time = 130.0;
  ev.node = sharer;
  ev.doc = fresh;
  w.live.apply(ev, w.model);
  algo.on_trace_event(ev);
  EXPECT_EQ(algo.counters().patch_ads, patches_before + 1);
  EXPECT_EQ(algo.advertiser(sharer).version(), version_before + 1);
}

TEST(AsapProtocol, JoinAdvertisesAndWarmsCache) {
  TestWorld w;
  AsapProtocol algo(w.ctx, test_params());
  warm(w, algo);
  // Pick a joiner slot that shares content.
  NodeId joiner = kInvalidNode;
  for (NodeId n = TestWorld::kNodes;
       n < TestWorld::kNodes + TestWorld::kJoiners; ++n) {
    if (!w.model.joiner_docs(n).empty()) {
      joiner = n;
      break;
    }
  }
  ASSERT_NE(joiner, kInvalidNode);
  const auto fulls_before = algo.counters().full_ads;
  trace::TraceEvent ev;
  ev.type = trace::TraceEventType::kJoin;
  ev.time = 130.0;
  ev.node = joiner;
  // Overlay slots are allocated sequentially; attach every slot up to and
  // including the joiner under test (mirrors the replayer's join order).
  for (NodeId n = TestWorld::kNodes; n <= joiner; ++n) {
    w.overlay.attach_new(4, w.rng);
  }
  w.live.apply(ev, w.model);
  w.index.apply(ev, w.model);
  algo.on_trace_event(ev);
  EXPECT_EQ(algo.counters().full_ads, fulls_before + 1);
  EXPECT_GT(algo.cache(joiner).size(), 0u)
      << "join-time ads request must warm the joiner's cache";
}

TEST(AsapProtocol, RefreshBeaconsFlowPeriodically) {
  TestWorld w;
  auto params = test_params();
  params.refresh_period = 10.0;
  AsapProtocol algo(w.ctx, params);
  warm(w, algo, 60.0);
  const auto before = algo.counters().refresh_ads;
  w.engine.run_until(200.0);
  EXPECT_GT(algo.counters().refresh_ads, before);
  EXPECT_GT(w.ledger.total(sim::Traffic::kRefreshAd), 0u);
}

TEST(AsapProtocol, LeaveStopsRefreshBeacons) {
  TestWorld w;
  auto params = test_params();
  params.refresh_period = 10.0;
  AsapProtocol algo(w.ctx, params);
  warm(w, algo, 60.0);
  // Take every sharer offline; beacons must die out.
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    if (!w.live.docs(n).empty()) w.live.set_online(n, false);
  }
  w.engine.run_until(100.0);
  const auto at_100 = algo.counters().refresh_ads;
  w.engine.run_until(400.0);
  EXPECT_EQ(algo.counters().refresh_ads, at_100);
}

TEST(AsapProtocol, DeliveredAdTrafficLandsInCorrectCategories) {
  TestWorld w;
  AsapProtocol algo(w.ctx, test_params());
  warm(w, algo);
  EXPECT_GT(w.ledger.total(sim::Traffic::kFullAd), 0u);
  EXPECT_EQ(w.ledger.total(sim::Traffic::kQuery), 0u)
      << "ASAP never sends baseline query messages";
}

TEST(AsapProtocol, RejectsBadParams) {
  TestWorld w;
  auto p = test_params();
  p.budget_unit_m0 = 0;
  EXPECT_THROW(AsapProtocol(w.ctx, p), ConfigError);
}

TEST(AsapProtocol, ZeroCacheCapacityIsAValidAblation) {
  // capacity 0 disables caching entirely (AdCache::put is a no-op), which
  // measures the protocol with dissemination but no stored state.
  TestWorld w;
  auto p = test_params();
  p.cache_capacity = 0;
  AsapProtocol algo(w.ctx, p);
  warm(w, algo);
  EXPECT_GT(algo.counters().full_ads, 0u) << "dissemination still runs";
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    EXPECT_EQ(algo.cache(n).size(), 0u);
  }
}

/// The keys a payload derives in its constructor match its content.
void expect_derived_keys(const AdPayload& ad) {
  EXPECT_EQ(ad.fold, ad.filter.fold()) << "source " << ad.source;
  EXPECT_EQ(ad.topic_mask, topic_mask_of(ad.topics)) << "source " << ad.source;
}

TEST(AsapProtocol, PublishedAndPollutedPayloadsCarryTheirDerivedKeys) {
  TestWorld w;
  const auto cfg = faults::fault_preset("polluted").config;
  const auto plan = faults::FaultPlan::build(
      cfg, 7, TestWorld::kNodes, std::span<const trace::TraceEvent>{}, 120.0,
      600.0, w.phys.params().total_stub_domains());
  faults::FaultInjector injector(plan, w.phys, 7);
  w.ctx.faults = &injector;
  AsapProtocol algo(w.ctx, test_params());
  warm(w, algo);
  ASSERT_GT(algo.counters().polluted_ads, 0u);

  std::uint64_t polluted_cached = 0;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    const Advertiser& adv = algo.advertiser(n);
    if (adv.payload()) expect_derived_keys(*adv.payload());
    if (adv.base_payload()) expect_derived_keys(*adv.base_payload());
    for (const auto& e : algo.cache(n).entries()) {
      expect_derived_keys(*e.ad);
      expect_derived_keys(*e.base);
      const auto& canonical = algo.advertiser(e.ad->source).payload();
      if (canonical->version == e.ad->version &&
          !(canonical->filter == e.ad->filter)) {
        ++polluted_cached;
        EXPECT_GT(e.ad->filter.popcount(), canonical->filter.popcount());
      }
    }
  }
  EXPECT_GT(polluted_cached, 0u) << "stuffed payloads must reach caches";
}

TEST(AsapProtocol, FillGateStrikesOncePerStuffedArrivalOnEveryIngestPath) {
  // A gate below every honest fill makes every nonempty ad stuffed, so
  // each full-ad arrival must earn exactly one implausible trust strike —
  // by walk, by packed frame and by ads reply alike. With no queries and
  // no confirms, strikes and stored puts then count the same arrivals.
  TestWorld w;
  obs::RunObserver observer{obs::ObsConfig{}};
  w.ctx.obs = &observer;
  auto params = test_params();
  params.ad_mode = AdMode::kAdaptive;
  params.trust_enabled = true;
  params.trust_fill_gate = 1e-6;
  params.patch_to_full_threshold = 0;  // every change ships as a full ad
  AsapProtocol algo(w.ctx, params);
  warm(w, algo);
  const auto& totals = observer.counters().totals();
  ASSERT_GT(totals.ads_stored, 0u);
  EXPECT_EQ(totals.trust_strikes, totals.ads_stored) << "walk deliveries";

  // Packed frame: a content change ships a full ad in the sharer's next
  // ad round.
  const NodeId sharer = w.a_sharer();
  Rng mint_rng(5);
  auto& model = const_cast<trace::ContentModel&>(w.model);
  const DocId fresh =
      model.mint_document(w.model.interests(sharer).front(), mint_rng);
  trace::TraceEvent change;
  change.type = trace::TraceEventType::kAddDoc;
  change.time = 130.0;
  change.node = sharer;
  change.doc = fresh;
  w.live.apply(change, w.model);
  const auto stored_before = totals.ads_stored;
  const auto strikes_before = totals.trust_strikes;
  const auto frames_before = algo.counters().packed_frames;
  algo.on_trace_event(change);
  w.engine.run_until(400.0);
  ASSERT_GT(algo.counters().packed_frames, frames_before);
  ASSERT_GT(totals.ads_stored, stored_before) << "the frame reached cachers";
  EXPECT_EQ(totals.trust_strikes - strikes_before,
            totals.ads_stored - stored_before)
      << "packed-frame deliveries";

  // Ads reply: a joiner's warm-up request merges its neighbors' cached
  // (stuffed) ads into its own cache.
  NodeId joiner = kInvalidNode;
  for (NodeId n = TestWorld::kNodes;
       n < TestWorld::kNodes + TestWorld::kJoiners; ++n) {
    if (!w.model.joiner_docs(n).empty()) {
      joiner = n;
      break;
    }
  }
  ASSERT_NE(joiner, kInvalidNode);
  trace::TraceEvent join;
  join.type = trace::TraceEventType::kJoin;
  join.time = 410.0;
  join.node = joiner;
  for (NodeId n = TestWorld::kNodes; n <= joiner; ++n) {
    w.overlay.attach_new(4, w.rng);
  }
  w.live.apply(join, w.model);
  w.index.apply(join, w.model);
  algo.on_trace_event(join);
  ASSERT_LT(joiner, observer.counters().nodes().size());
  const auto& row = observer.counters().nodes()[joiner];
  ASSERT_GT(row.ads_stored, 0u) << "the ads reply reached the joiner";
  EXPECT_EQ(row.trust_strikes, row.ads_stored) << "ads-reply deliveries";

  EXPECT_EQ(algo.counters().trust_strikes, totals.trust_strikes);
  EXPECT_EQ(totals.trust_strikes, totals.ads_stored);
}

TEST(AsapProtocol, PaperPresetMatchesPaperParameters) {
  const auto p = AsapParams::paper(search::Scheme::kRandomWalk);
  EXPECT_EQ(p.budget_unit_m0, 3'000u);  // M0 (§IV-A)
  EXPECT_EQ(p.walkers, 5u);
  EXPECT_EQ(p.flood_ttl, 6u);
  EXPECT_EQ(p.ads_request_hops, 1u);  // h = 1 by default (§III-C)
}

}  // namespace
}  // namespace asap::ads
