// Parameterized property suite: invariants that must hold for every ASAP
// forwarding scheme (FLD / RW / GSA).
#include <gtest/gtest.h>

#include "../support/test_world.hpp"
#include "asap/asap_protocol.hpp"

namespace asap::ads {
namespace {

using asap::testing::TestWorld;

class AsapSchemeTest : public ::testing::TestWithParam<search::Scheme> {
 protected:
  AsapParams params() const {
    AsapParams p;
    p.scheme = GetParam();
    p.budget_unit_m0 = 600;
    p.refresh_period = 40.0;
    return p;
  }
};

TEST_P(AsapSchemeTest, WarmupProducesOneFullAdPerSharer) {
  TestWorld w;
  AsapProtocol algo(w.ctx, params());
  algo.warm_up(120.0);
  w.engine.run_until(120.0);
  std::uint64_t sharers = 0;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    sharers += !w.live.docs(n).empty();
  }
  EXPECT_EQ(algo.counters().full_ads, sharers);
}

TEST_P(AsapSchemeTest, AdvertiserVersionsAreConsistentWithPayloads) {
  TestWorld w;
  AsapProtocol algo(w.ctx, params());
  algo.warm_up(120.0);
  w.engine.run_until(120.0);
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    const auto& adv = algo.advertiser(n);
    if (adv.has_advertised()) {
      EXPECT_EQ(adv.payload()->version, adv.version());
      EXPECT_EQ(adv.payload()->source, n);
      EXPECT_FALSE(adv.dirty())
          << "published state must match the live filter after warm-up";
    }
  }
}

TEST_P(AsapSchemeTest, CachedVersionsNeverExceedTheSource) {
  TestWorld w;
  AsapProtocol algo(w.ctx, params());
  algo.warm_up(120.0);
  w.engine.run_until(300.0);  // a few refresh rounds
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    const auto& cache = algo.cache(n);
    for (const auto& e : cache.entries()) {
      const NodeId src = e.ad->source;
      EXPECT_LE(e.ad->version, algo.advertiser(src).version())
          << "cache at " << n << " holds a version from the future of "
          << src;
    }
  }
}

TEST_P(AsapSchemeTest, SearchesProduceConsistentRecords) {
  TestWorld w;
  AsapProtocol algo(w.ctx, params());
  algo.warm_up(120.0);
  w.engine.run_until(120.0);
  // Replay a batch of queries for real documents.
  Rng pick(77);
  std::uint32_t issued = 0;
  for (int i = 0; i < 100; ++i) {
    const NodeId holder =
        static_cast<NodeId>(pick.below(TestWorld::kNodes));
    if (w.live.docs(holder).empty()) continue;
    const auto& docs = w.live.docs(holder);
    const DocId d = docs[pick.below(docs.size())];
    NodeId requester =
        static_cast<NodeId>(pick.below(TestWorld::kNodes));
    if (requester == holder) requester = (holder + 1) % TestWorld::kNodes;
    trace::TraceEvent ev;
    ev.type = trace::TraceEventType::kQuery;
    ev.time = 130.0 + i;
    ev.node = requester;
    ev.doc = d;
    const auto& kws = w.model.doc(d).keywords;
    ev.num_terms = 1;
    ev.terms[0] = kws.back();  // unique term: only replica holders match
    algo.on_trace_event(ev);
    ++issued;
  }
  ASSERT_GT(issued, 50u);
  const auto& s = algo.stats();
  EXPECT_EQ(s.total(), issued);
  // Invariants: successes <= total; every success implies >= 1 result and
  // a positive response time; cost is nonzero whenever messages flowed.
  EXPECT_LE(s.successes(), s.total());
  if (s.successes() > 0) {
    EXPECT_GT(s.avg_response_time(), 0.0);
    EXPECT_GE(s.avg_results() * static_cast<double>(s.total()),
              static_cast<double>(s.successes()) - 1e-9);
  }
  EXPECT_GT(s.success_rate(), 0.5) << "warmed caches must answer most";
}

TEST_P(AsapSchemeTest, LedgerOnlySeesAsapTrafficCategories) {
  TestWorld w;
  AsapProtocol algo(w.ctx, params());
  algo.warm_up(120.0);
  w.engine.run_until(200.0);
  EXPECT_EQ(w.ledger.total(sim::Traffic::kQuery), 0u);
  EXPECT_EQ(w.ledger.total(sim::Traffic::kResponse), 0u);
  EXPECT_GT(w.ledger.total(sim::Traffic::kFullAd), 0u);
}

TEST_P(AsapSchemeTest, DeterministicAcrossIdenticalRuns) {
  auto run = [&] {
    TestWorld w(4242);
    AsapProtocol algo(w.ctx, params());
    algo.warm_up(120.0);
    w.engine.run_until(250.0);
    return std::tuple(algo.counters().full_ads,
                      algo.counters().refresh_ads,
                      w.ledger.grand_total());
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AsapSchemeTest,
                         ::testing::Values(search::Scheme::kFlooding,
                                           search::Scheme::kRandomWalk,
                                           search::Scheme::kGsa),
                         [](const auto& info) {
                           return std::string(
                               search::scheme_name(info.param)) == "flooding"
                                      ? "FLD"
                                      : search::scheme_name(info.param) ==
                                                std::string("random-walk")
                                            ? "RW"
                                            : "GSA";
                         });

}  // namespace
}  // namespace asap::ads
