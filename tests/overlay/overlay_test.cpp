#include "overlay/overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace asap::overlay {
namespace {

TEST(Overlay, RandomHasRequestedMeanDegreeAndIsConnected) {
  Rng rng(1);
  const auto g = Overlay::random(2'000, 5.0, rng);
  EXPECT_EQ(g.num_nodes(), 2'000u);
  EXPECT_NEAR(g.avg_degree(), 5.0, 0.15);
  EXPECT_TRUE(g.connected());
}

TEST(Overlay, PowerlawMeanDegreeAndConnectivity) {
  Rng rng(2);
  const auto g = Overlay::powerlaw(2'000, 5.0, 0.74, rng);
  EXPECT_NEAR(g.avg_degree(), 5.0, 0.35);
  EXPECT_TRUE(g.connected());
}

TEST(Overlay, CrawledLikeMatchesLimewireShape) {
  Rng rng(3);
  const auto g = Overlay::crawled_like(2'000, 3.35, rng);
  EXPECT_NEAR(g.avg_degree(), 3.35, 0.5);
  EXPECT_TRUE(g.connected());
  // Two-tier shape: many leaves (degree 1-2) plus well-connected hubs.
  const auto hist = g.degree_histogram();
  std::uint32_t leaves = 0, hubs = 0;
  for (std::size_t d = 0; d < hist.size(); ++d) {
    if (d <= 2) leaves += hist[d];
    if (d >= 10) hubs += hist[d];
  }
  EXPECT_GT(leaves, 1'000u);
  EXPECT_GT(hubs, 50u);
}

TEST(Overlay, NoSelfLoopsOrParallelEdges) {
  Rng rng(4);
  const auto g = Overlay::powerlaw(500, 5.0, 0.74, rng);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    std::set<NodeId> seen;
    for (NodeId nb : g.neighbors(n)) {
      EXPECT_NE(nb, n) << "self-loop at " << n;
      EXPECT_TRUE(seen.insert(nb).second) << "parallel edge at " << n;
    }
  }
}

TEST(Overlay, AdjacencyIsSymmetric) {
  Rng rng(5);
  const auto g = Overlay::random(300, 4.0, rng);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (NodeId nb : g.neighbors(n)) {
      const auto back = g.neighbors(nb);
      EXPECT_NE(std::find(back.begin(), back.end(), n), back.end());
    }
  }
}

TEST(Overlay, DetachRemovesAllEdges) {
  Rng rng(6);
  auto g = Overlay::random(100, 5.0, rng);
  const auto edges_before = g.num_edges();
  const auto deg = g.degree(7);
  ASSERT_GT(deg, 0u);
  g.detach(7);
  EXPECT_FALSE(g.attached(7));
  EXPECT_EQ(g.degree(7), 0u);
  EXPECT_EQ(g.num_edges(), edges_before - deg);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (NodeId nb : g.neighbors(n)) EXPECT_NE(nb, 7u);
  }
  g.detach(7);  // idempotent
  EXPECT_EQ(g.num_edges(), edges_before - deg);
}

TEST(Overlay, AttachNewConnectsToLivePeers) {
  Rng rng(7);
  auto g = Overlay::random(50, 4.0, rng);
  g.detach(3);
  const NodeId id = g.attach_new(5, rng);
  EXPECT_EQ(id, 50u);
  EXPECT_TRUE(g.attached(id));
  EXPECT_EQ(g.degree(id), 5u);
  for (NodeId nb : g.neighbors(id)) {
    EXPECT_TRUE(g.attached(nb));
    EXPECT_NE(nb, 3u) << "must not connect to a detached node";
  }
}

TEST(Overlay, AttachNewClampsDegreeToPopulation) {
  Rng rng(8);
  auto g = Overlay::random(5, 2.0, rng);
  const NodeId id = g.attach_new(100, rng);
  EXPECT_EQ(g.degree(id), 5u);  // all pre-existing nodes
}

TEST(Overlay, AttachedNodesReflectsChurn) {
  Rng rng(9);
  auto g = Overlay::random(10, 3.0, rng);
  g.detach(2);
  g.detach(8);
  const auto live = g.attached_nodes();
  EXPECT_EQ(live.size(), 8u);
  EXPECT_EQ(std::find(live.begin(), live.end(), 2u), live.end());
}

TEST(Overlay, AddEdgeRejectsDuplicatesAndSelfLoops) {
  Rng rng(10);
  auto g = Overlay::random(10, 2.0, rng);
  EXPECT_FALSE(g.add_edge(3, 3));
  const bool added = g.add_edge(0, 9);
  EXPECT_FALSE(g.add_edge(0, 9));
  EXPECT_FALSE(g.add_edge(9, 0));
  std::ignore = added;
}

TEST(Overlay, DeterministicForSeed) {
  Rng a(11), b(11);
  const auto g1 = Overlay::crawled_like(500, 3.35, a);
  const auto g2 = Overlay::crawled_like(500, 3.35, b);
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  for (NodeId n = 0; n < g1.num_nodes(); ++n) {
    ASSERT_EQ(g1.degree(n), g2.degree(n)) << "node " << n;
  }
}

TEST(Overlay, RejectsBadParameters) {
  Rng rng(12);
  EXPECT_THROW(Overlay::random(1, 1.0, rng), ConfigError);
  EXPECT_THROW(Overlay::random(100, 1.0, rng), ConfigError);
  EXPECT_THROW(Overlay::random(10, 10.0, rng), ConfigError);
  EXPECT_THROW(Overlay::powerlaw(100, 1.0, 0.74, rng), ConfigError);
  EXPECT_THROW(Overlay::crawled_like(10, 3.35, rng), ConfigError);
}


TEST(Overlay, InterestClusteredFavorsSameGroupEdges) {
  Rng rng(20);
  constexpr std::uint32_t kN = 1'000;
  std::vector<std::uint8_t> groups(kN);
  for (NodeId i = 0; i < kN; ++i) groups[i] = i % 4;
  const auto g = Overlay::interest_clustered(kN, 6.0, groups, 0.8, rng);
  EXPECT_TRUE(g.connected());
  EXPECT_NEAR(g.avg_degree(), 6.0, 0.4);
  std::uint64_t same = 0, cross = 0;
  for (NodeId n = 0; n < kN; ++n) {
    for (NodeId nb : g.neighbors(n)) {
      (groups[n] == groups[nb] ? same : cross) += 1;
    }
  }
  // With 4 equal groups and uniform wiring, same-group edges would be
  // ~25%; clustering at 0.8 must push well past half.
  EXPECT_GT(same, cross);

  Rng rng2(21);
  const auto uniform = Overlay::interest_clustered(kN, 6.0, groups, 0.0, rng2);
  std::uint64_t same_u = 0, cross_u = 0;
  for (NodeId n = 0; n < kN; ++n) {
    for (NodeId nb : uniform.neighbors(n)) {
      (groups[n] == groups[nb] ? same_u : cross_u) += 1;
    }
  }
  EXPECT_LT(same_u, cross_u);
}

TEST(Overlay, InterestClusteredRejectsBadParams) {
  Rng rng(22);
  std::vector<std::uint8_t> groups(100, 0);
  EXPECT_THROW(Overlay::interest_clustered(200, 5.0, groups, 0.5, rng),
               ConfigError);
  groups.resize(200);
  EXPECT_THROW(Overlay::interest_clustered(200, 5.0, groups, 1.5, rng),
               ConfigError);
  EXPECT_THROW(Overlay::interest_clustered(200, 1.0, groups, 0.5, rng),
               ConfigError);
}

TEST(Overlay, ReattachRestoresNodeWithFreshEdges) {
  Rng rng(23);
  auto g = Overlay::random(60, 4.0, rng);
  g.detach(10);
  ASSERT_FALSE(g.attached(10));
  g.reattach(10, 4, rng);
  EXPECT_TRUE(g.attached(10));
  EXPECT_EQ(g.degree(10), 4u);
  for (NodeId nb : g.neighbors(10)) EXPECT_TRUE(g.attached(nb));
  // Idempotent for already-attached nodes.
  const auto deg = g.degree(10);
  g.reattach(10, 4, rng);
  EXPECT_EQ(g.degree(10), deg);
  EXPECT_THROW(g.reattach(10'000, 4, rng), ConfigError);
}

// Degree histogram sanity across all three generators. The kind is a
// std::string, not a const char*: gtest prints a pointer parameter with its
// address, which would make the printed case name change from run to run.
class OverlayGeneratorTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(OverlayGeneratorTest, HistogramTotalsMatchNodeCount) {
  Rng rng(13);
  const auto& [kind, mean] = GetParam();
  Overlay g = kind == "random"
                  ? Overlay::random(1'000, mean, rng)
                  : kind == "powerlaw"
                        ? Overlay::powerlaw(1'000, mean, 0.74, rng)
                        : Overlay::crawled_like(1'000, mean, rng);
  const auto hist = g.degree_histogram();
  std::uint64_t total = 0, weighted = 0;
  for (std::size_t d = 0; d < hist.size(); ++d) {
    total += hist[d];
    weighted += hist[d] * d;
  }
  EXPECT_EQ(total, 1'000u);
  EXPECT_EQ(weighted, 2 * g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, OverlayGeneratorTest,
    ::testing::Values(std::make_tuple(std::string("random"), 5.0),
                      std::make_tuple(std::string("powerlaw"), 5.0),
                      std::make_tuple(std::string("crawled"), 3.35)));

}  // namespace
}  // namespace asap::overlay
