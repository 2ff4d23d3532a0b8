#include "net/transit_stub.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace asap::net {

/// Test-only window onto the generator's raw tables.
struct TransitStubTestPeer {
  /// Reference latency: the hierarchical computation the per-node route
  /// table replaced, evaluated straight from the APSP tables with the
  /// divisions and the evaluation order it always used.
  static Seconds reference_latency(const TransitStubNetwork& net,
                                   PhysNodeId a, PhysNodeId b) {
    if (a == b) return 0.0;
    const auto uplink = net.params_.transit_stub_latency;
    const auto domain_of = [&](PhysNodeId n) {
      return (n - net.num_transit_) / net.stub_size_;
    };
    auto to_transit = [&](PhysNodeId n, std::uint32_t& transit) -> Seconds {
      if (n < net.num_transit_) {
        transit = n;
        return 0.0;
      }
      const auto& dom = net.stub_domains_[domain_of(n)];
      const std::uint32_t member = n - dom.first_node;
      transit = dom.transit;
      return static_cast<Seconds>(
                 dom.dist[member * net.stub_size_ + dom.gateway]) +
             uplink;
    };
    if (a >= net.num_transit_ && b >= net.num_transit_) {
      const std::uint32_t sda = domain_of(a);
      if (sda == domain_of(b)) {
        const auto& dom = net.stub_domains_[sda];
        const std::uint32_t ma = a - dom.first_node;
        const std::uint32_t mb = b - dom.first_node;
        return static_cast<Seconds>(dom.dist[ma * net.stub_size_ + mb]);
      }
    }
    std::uint32_t ta = 0, tb = 0;
    const Seconds up_a = to_transit(a, ta);
    const Seconds up_b = to_transit(b, tb);
    return up_a + static_cast<Seconds>(net.transit_dist(ta, tb)) + up_b;
  }
};

namespace {

/// Bit-identity of the route-table latency against the reference: every
/// transit pair, every pair inside a spread of stub domains, and `random`
/// seeded random pairs. EXPECT_EQ on the double, not DOUBLE_EQ: a single
/// ulp of drift would move every downstream digest.
void expect_latency_matches_reference(const TransitStubParams& p,
                                      std::uint64_t seed,
                                      std::uint32_t random) {
  Rng rng(seed);
  const auto net = TransitStubNetwork::generate(p, rng);
  const auto check = [&net](PhysNodeId a, PhysNodeId b) {
    ASSERT_EQ(net.latency(a, b),
              TransitStubTestPeer::reference_latency(net, a, b))
        << "a=" << a << " b=" << b;
  };
  const std::uint32_t t = p.total_transit_nodes();
  for (PhysNodeId a = 0; a < t; ++a) {
    for (PhysNodeId b = 0; b < t; ++b) check(a, b);
  }
  const std::uint32_t s = p.stub_nodes_per_domain;
  const std::uint32_t domains = p.total_stub_domains();
  for (const std::uint32_t sd :
       {0U, 1U, domains / 3, domains / 2, domains - 2, domains - 1}) {
    const PhysNodeId first = t + sd * s;
    for (PhysNodeId a = first; a < first + s; ++a) {
      for (PhysNodeId b = first; b < first + s; ++b) check(a, b);
      check(a, sd % t);  // stub member to a transit node, both directions
      check(sd % t, a);
    }
  }
  Rng pick(seed ^ 0x5EEDULL);
  for (std::uint32_t i = 0; i < random; ++i) {
    const auto a = static_cast<PhysNodeId>(pick.below(net.num_nodes()));
    const auto b = static_cast<PhysNodeId>(pick.below(net.num_nodes()));
    check(a, b);
  }
}

TEST(TransitStubNetwork, LatencyMatchesReferenceOnSmallPreset) {
  expect_latency_matches_reference(TransitStubParams::small(), 11, 100'000);
}

TEST(TransitStubNetwork, LatencyMatchesReferenceOnPaperPreset) {
  expect_latency_matches_reference(TransitStubParams::paper(), 42, 200'000);
}

TransitStubParams tiny_params() {
  TransitStubParams p;
  p.transit_domains = 3;
  p.transit_nodes_per_domain = 4;
  p.stub_domains_per_transit = 2;
  p.stub_nodes_per_domain = 8;
  return p;
}

TEST(TransitStubParams, PaperScaleMatchesThePaper) {
  const auto p = TransitStubParams::paper();
  EXPECT_EQ(p.total_transit_nodes(), 144u);     // 9 domains x 16 nodes
  EXPECT_EQ(p.total_stub_domains(), 1'296u);    // 144 x 9
  EXPECT_EQ(p.total_nodes(), 51'984u);          // the paper's figure
}

TEST(TransitStubParams, SmallPresetIsConsistent) {
  const auto p = TransitStubParams::small();
  EXPECT_EQ(p.total_nodes(), p.total_transit_nodes() +
                                 p.total_stub_domains() *
                                     p.stub_nodes_per_domain);
  EXPECT_GT(p.total_nodes(), 2'000u);  // must fit the small content preset
}

TEST(TransitStubNetwork, GeneratesRequestedSize) {
  Rng rng(1);
  const auto net = TransitStubNetwork::generate(tiny_params(), rng);
  EXPECT_EQ(net.num_nodes(), tiny_params().total_nodes());
  EXPECT_GT(net.num_links(), 0u);
}

TEST(TransitStubNetwork, KindAndParentAreConsistent) {
  Rng rng(2);
  const auto p = tiny_params();
  const auto net = TransitStubNetwork::generate(p, rng);
  const auto t = p.total_transit_nodes();
  for (PhysNodeId n = 0; n < t; ++n) {
    EXPECT_EQ(net.kind(n), TransitStubNetwork::NodeKind::kTransit);
    EXPECT_EQ(net.parent_transit(n), n);
  }
  for (PhysNodeId n = t; n < net.num_nodes(); ++n) {
    EXPECT_EQ(net.kind(n), TransitStubNetwork::NodeKind::kStub);
    EXPECT_LT(net.parent_transit(n), t);
  }
  EXPECT_THROW(net.stub_domain_of(0), ConfigError);
}

TEST(TransitStubNetwork, LatencyAxioms) {
  Rng rng(3);
  const auto net = TransitStubNetwork::generate(tiny_params(), rng);
  Rng pick(7);
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<PhysNodeId>(pick.below(net.num_nodes()));
    const auto b = static_cast<PhysNodeId>(pick.below(net.num_nodes()));
    const Seconds ab = net.latency(a, b);
    EXPECT_DOUBLE_EQ(net.latency(a, a), 0.0);
    EXPECT_DOUBLE_EQ(ab, net.latency(b, a)) << "latency must be symmetric";
    EXPECT_GE(ab, 0.0);
    EXPECT_TRUE(std::isfinite(ab)) << "network must be connected";
  }
}

TEST(TransitStubNetwork, IntraStubLatencyIsSmall) {
  Rng rng(4);
  const auto p = tiny_params();
  const auto net = TransitStubNetwork::generate(p, rng);
  const auto t = p.total_transit_nodes();
  // Two members of the same stub domain: path stays inside the domain, so
  // latency <= (s-1) hops * 2 ms.
  const PhysNodeId a = t;      // member 0 of stub domain 0
  const PhysNodeId b = t + 3;  // member 3 of stub domain 0
  const Seconds lat = net.latency(a, b);
  EXPECT_GT(lat, 0.0);
  EXPECT_LE(lat, (p.stub_nodes_per_domain - 1) * p.intra_stub_latency);
}

TEST(TransitStubNetwork, CrossDomainLatencyIncludesUplinks) {
  Rng rng(5);
  const auto p = tiny_params();
  const auto net = TransitStubNetwork::generate(p, rng);
  const auto t = p.total_transit_nodes();
  const auto s = p.stub_nodes_per_domain;
  // Stub nodes under different transit DOMAINS must pay two uplinks (2x5ms)
  // plus at least one inter-domain transit hop (50 ms).
  const PhysNodeId a = t;  // stub domain 0 -> transit 0 (domain 0)
  const auto last_domain = p.total_stub_domains() - 1;
  const PhysNodeId b = t + last_domain * s;  // last stub domain
  const Seconds lat = net.latency(a, b);
  EXPECT_GE(lat, 2 * p.transit_stub_latency + p.inter_transit_latency);
}

TEST(TransitStubNetwork, TriangleInequalityViaTransit) {
  // Hierarchical routing through precomputed APSP tables must satisfy the
  // triangle inequality on the transit level.
  Rng rng(6);
  const auto net = TransitStubNetwork::generate(tiny_params(), rng);
  Rng pick(8);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<PhysNodeId>(pick.below(net.num_nodes()));
    const auto b = static_cast<PhysNodeId>(pick.below(net.num_nodes()));
    const auto c = static_cast<PhysNodeId>(pick.below(12));  // transit node
    // Distance tables are float-backed; allow float-level rounding slack.
    EXPECT_LE(net.latency(a, b),
              net.latency(a, c) + net.latency(c, b) + 1e-6);
  }
}

TEST(TransitStubNetwork, DeterministicForSeed) {
  Rng rng1(42), rng2(42);
  const auto n1 = TransitStubNetwork::generate(tiny_params(), rng1);
  const auto n2 = TransitStubNetwork::generate(tiny_params(), rng2);
  EXPECT_EQ(n1.num_links(), n2.num_links());
  Rng pick(9);
  for (int i = 0; i < 100; ++i) {
    const auto a = static_cast<PhysNodeId>(pick.below(n1.num_nodes()));
    const auto b = static_cast<PhysNodeId>(pick.below(n1.num_nodes()));
    EXPECT_DOUBLE_EQ(n1.latency(a, b), n2.latency(a, b));
  }
}

TEST(TransitStubNetwork, RejectsBadParams) {
  Rng rng(10);
  TransitStubParams p = tiny_params();
  p.transit_domains = 0;
  EXPECT_THROW(TransitStubNetwork::generate(p, rng), ConfigError);
  p = tiny_params();
  p.intra_stub_edge_prob = 1.5;
  EXPECT_THROW(TransitStubNetwork::generate(p, rng), ConfigError);
}

}  // namespace
}  // namespace asap::net
