#include "asap/superpeer.hpp"

#include "asap/asap_protocol.hpp"

#include <gtest/gtest.h>

#include <span>

#include "../support/test_world.hpp"
#include "faults/fault_config.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"

namespace asap::ads {
namespace {

using asap::testing::TestWorld;

SuperpeerParams test_params(search::Scheme s = search::Scheme::kRandomWalk) {
  SuperpeerParams p;
  p.scheme = s;
  p.budget_unit_m0 = 200;  // the 45-superpeer test mesh is tiny
  p.refresh_period = 30.0;
  return p;
}

void warm(TestWorld& w, SuperpeerAsap& algo, Seconds warmup = 120.0) {
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

TEST(SuperpeerAsap, HierarchyCoversEveryNode) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params());
  EXPECT_NEAR(algo.num_superpeers(), 0.15 * TestWorld::kNodes,
              0.02 * TestWorld::kNodes);
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    const NodeId proxy = algo.proxy_of(n);
    ASSERT_NE(proxy, kInvalidNode) << "node " << n << " has no proxy";
    EXPECT_TRUE(algo.is_superpeer(proxy));
    if (algo.is_superpeer(n)) EXPECT_EQ(proxy, n);
  }
}

TEST(SuperpeerAsap, SuperpeersAreHighDegreeNodes) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params());
  // Every superpeer's degree must be >= every leaf's degree minus ties.
  std::uint32_t min_sp = UINT32_MAX, max_leaf = 0;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    if (algo.is_superpeer(n)) {
      min_sp = std::min(min_sp, w.overlay.degree(n));
    } else {
      max_leaf = std::max(max_leaf, w.overlay.degree(n));
    }
  }
  EXPECT_GE(min_sp + 1, max_leaf);  // allow a tie boundary
}

TEST(SuperpeerAsap, OnlySuperpeersCacheAds) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params(search::Scheme::kFlooding));
  warm(w, algo);
  EXPECT_GT(algo.counters().full_ads, 0u);
  EXPECT_GT(algo.counters().proxy_uploads, 0u);
  EXPECT_GT(algo.total_cached_ads(), 0u);
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    if (!algo.is_superpeer(n)) {
      EXPECT_EQ(algo.cache(n).size(), 0u) << "leaf " << n << " cached ads";
    }
  }
}

TEST(SuperpeerAsap, LeafSearchSucceedsThroughProxy) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params(search::Scheme::kFlooding));
  warm(w, algo);
  const NodeId holder = w.a_sharer();
  // Pick a leaf requester.
  NodeId leaf = kInvalidNode;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    if (!algo.is_superpeer(n) && n != holder) {
      leaf = n;
      break;
    }
  }
  ASSERT_NE(leaf, kInvalidNode);
  algo.on_trace_event(query_event(w, leaf, holder, 130.0));
  EXPECT_EQ(algo.stats().successes(), 1u);
  EXPECT_GT(algo.counters().proxy_queries, 0u);
  // Response pays the proxy round trip plus the confirmation round trip.
  EXPECT_GT(algo.stats().avg_response_time(),
            2.0 * w.ctx.latency(leaf, algo.proxy_of(leaf)) - 1e-9);
}

TEST(SuperpeerAsap, MemoryConcentratesOnSuperpeers) {
  // Flat ASAP spreads cache entries over every interested node; the
  // superpeer mode concentrates them on ~15% of nodes. Total entries must
  // be far below flat ASAP's (same warm-up, same world).
  TestWorld w1(99), w2(99);
  AsapParams flat;
  flat.scheme = search::Scheme::kFlooding;
  AsapProtocol flat_algo(w1.ctx, flat);
  flat_algo.warm_up(120.0);
  w1.engine.run_until(120.0);
  std::uint64_t flat_total = 0;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    flat_total += flat_algo.cache(n).size();
  }

  SuperpeerAsap sp_algo(w2.ctx, test_params(search::Scheme::kFlooding));
  warm(w2, sp_algo);
  EXPECT_LT(sp_algo.total_cached_ads(), flat_total);
  EXPECT_GT(sp_algo.total_cached_ads(), 0u);
}

TEST(SuperpeerAsap, StateBytesCoverItsCaches) {
  // Superpeer runs report their own footprint in results.json. The same
  // world warmed with caching disabled holds everything but the caches'
  // contents (a capacity-0 cache draws no randomness), so the difference
  // is exactly what the proxy caches own.
  TestWorld w, bare_world;
  SuperpeerAsap algo(w.ctx, test_params());
  SuperpeerParams bare_params = test_params();
  bare_params.cache_capacity = 0;
  SuperpeerAsap bare(bare_world.ctx, bare_params);
  warm(w, algo);
  warm(bare_world, bare);
  ASSERT_GT(algo.total_cached_ads(), 0u);
  std::uint64_t caches = 0;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    caches += algo.cache(n).memory_bytes();
  }
  EXPECT_GT(caches, 0u);
  EXPECT_GT(bare.state_bytes(), 0u) << "advertisers and hierarchy are state";
  EXPECT_EQ(algo.state_bytes(), bare.state_bytes() + caches);
}

TEST(SuperpeerAsap, ContentChangeFlowsThroughProxy) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params());
  warm(w, algo);
  const NodeId sharer = w.a_sharer();
  const auto patches_before = algo.counters().patch_ads;
  Rng mint_rng(5);
  auto& model = const_cast<trace::ContentModel&>(w.model);
  const DocId fresh =
      model.mint_document(w.model.interests(sharer).front(), mint_rng);
  trace::TraceEvent ev;
  ev.type = trace::TraceEventType::kAddDoc;
  ev.time = 130.0;
  ev.node = sharer;
  ev.doc = fresh;
  w.live.apply(ev, w.model);
  algo.on_trace_event(ev);
  EXPECT_EQ(algo.counters().patch_ads, patches_before + 1);
}

TEST(SuperpeerAsap, OfflineProxyTriggersReassignment) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params(search::Scheme::kFlooding));
  warm(w, algo);
  const NodeId holder = w.a_sharer();
  NodeId leaf = kInvalidNode;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    if (!algo.is_superpeer(n) && n != holder) {
      leaf = n;
      break;
    }
  }
  ASSERT_NE(leaf, kInvalidNode);
  const NodeId old_proxy = algo.proxy_of(leaf);
  w.live.set_online(old_proxy, false);
  algo.on_trace_event(query_event(w, leaf, holder, 130.0));
  // The query still completed (through a replacement proxy).
  EXPECT_EQ(algo.stats().total(), 1u);
  EXPECT_NE(algo.proxy_of(leaf), old_proxy);
  w.live.set_online(old_proxy, true);
}

TEST(SuperpeerAsap, NamesFollowScheme) {
  TestWorld w;
  EXPECT_EQ(SuperpeerAsap(w.ctx, test_params(search::Scheme::kFlooding)).name(),
            "sp-asap(fld)");
  EXPECT_EQ(
      SuperpeerAsap(w.ctx, test_params(search::Scheme::kRandomWalk)).name(),
      "sp-asap(rw)");
}

TEST(SuperpeerAsap, RejectsBadParams) {
  TestWorld w;
  auto p = test_params();
  p.superpeer_fraction = 0.0;
  EXPECT_THROW(SuperpeerAsap(w.ctx, p), ConfigError);
  p = test_params();
  p.budget_unit_m0 = 0;
  EXPECT_THROW(SuperpeerAsap(w.ctx, p), ConfigError);
}

TEST(SuperpeerAsap, PollutedPayloadsCarryTheirDerivedKeys) {
  // maybe_pollute builds a new payload from the stuffed filter, so its
  // fold and topic mask describe what the superpeers actually cache.
  TestWorld w;
  const auto cfg = faults::fault_preset("polluted").config;
  const auto plan = faults::FaultPlan::build(
      cfg, 7, TestWorld::kNodes, std::span<const trace::TraceEvent>{}, 120.0,
      600.0, w.phys.params().total_stub_domains());
  faults::FaultInjector injector(plan, w.phys, 7);
  w.ctx.faults = &injector;
  SuperpeerAsap algo(w.ctx, test_params());
  warm(w, algo);
  ASSERT_GT(algo.counters().polluted_ads, 0u);
  std::uint64_t checked = 0;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    for (const auto& e : algo.cache(n).entries()) {
      EXPECT_EQ(e.ad->fold, e.ad->filter.fold());
      EXPECT_EQ(e.ad->topic_mask, topic_mask_of(e.ad->topics));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace asap::ads
