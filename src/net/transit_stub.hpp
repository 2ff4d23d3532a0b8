// Transit-stub physical network model (GT-ITM, Zegura et al. [26]) with a
// hierarchical latency oracle.
//
// The paper's experimental framework (§IV-A):
//   * 9 transit domains x 16 transit nodes = 144 transit nodes,
//   * each transit node carries 9 stub domains x 40 stub nodes,
//   * total 144 + 144*9*40 = 51,984 physical nodes,
//   * transit domains fully connected at the top level,
//   * intra-transit-domain edge probability 0.6, intra-stub 0.4,
//   * latencies: 50 ms inter-transit-domain, 20 ms intra-transit-domain,
//     5 ms transit<->stub, 2 ms intra-stub-domain.
//
// Routing follows the transit-stub hierarchy (as GT-ITM's routing policy
// does): traffic between different stub domains exits through the stub
// domain's gateway to its parent transit node, crosses the transit overlay,
// and descends into the destination stub domain. This lets us answer
// point-to-point latency queries from small precomputed tables
// (per-stub-domain APSP, transit APSP, and one 16-byte route record per
// node holding its uplink distance, transit attachment and stub domain)
// instead of an infeasible 52k x 52k matrix. Every ad-walk hop asks for a
// latency, so a query is two record loads and one table read — no
// divisions.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace asap::net {

struct TransitStubParams {
  std::uint32_t transit_domains = 9;
  std::uint32_t transit_nodes_per_domain = 16;
  std::uint32_t stub_domains_per_transit = 9;
  std::uint32_t stub_nodes_per_domain = 40;
  double intra_transit_edge_prob = 0.6;
  double intra_stub_edge_prob = 0.4;
  Seconds inter_transit_latency = ms(50);
  Seconds intra_transit_latency = ms(20);
  Seconds transit_stub_latency = ms(5);
  Seconds intra_stub_latency = ms(2);

  /// Scaled-down preset used by default on small machines (~5.2k nodes).
  static TransitStubParams small();
  /// Paper-scale preset: 51,984 physical nodes.
  static TransitStubParams paper();

  std::uint32_t total_transit_nodes() const {
    return transit_domains * transit_nodes_per_domain;
  }
  std::uint32_t total_stub_domains() const {
    return total_transit_nodes() * stub_domains_per_transit;
  }
  std::uint32_t total_nodes() const {
    return total_transit_nodes() +
           total_stub_domains() * stub_nodes_per_domain;
  }
};

/// Immutable transit-stub topology plus O(1) latency queries after an
/// O(domains * s^3 + nodes) preprocessing step (s = stub nodes per domain).
class TransitStubNetwork {
 public:
  enum class NodeKind : std::uint8_t { kTransit, kStub };

  /// Generates a connected topology. Throws ConfigError on bad params.
  static TransitStubNetwork generate(const TransitStubParams& params,
                                     Rng& rng);

  std::uint32_t num_nodes() const { return num_nodes_; }
  const TransitStubParams& params() const { return params_; }

  NodeKind kind(PhysNodeId n) const;
  /// Transit node a stub node routes through (for transit nodes: itself).
  PhysNodeId parent_transit(PhysNodeId n) const;
  /// Stub domain index of a stub node (throws for transit nodes).
  std::uint32_t stub_domain_of(PhysNodeId n) const;

  /// One-way propagation latency between any two physical nodes, following
  /// hierarchical routing. latency(a, a) == 0.
  Seconds latency(PhysNodeId a, PhysNodeId b) const {
    ASAP_DCHECK(a < num_nodes_ && b < num_nodes_);
    if (a == b) return 0.0;
    const Route& ra = routes_[a];
    const Route& rb = routes_[b];
    if (ra.domain == rb.domain && ra.domain != kNoDomain) {
      // Same stub domain: the route stays inside the domain.
      const StubDomain& dom = stub_domains_[ra.domain];
      return static_cast<Seconds>(
          dom.dist[(a - dom.first_node) * stub_size_ + (b - dom.first_node)]);
    }
    return ra.up + static_cast<Seconds>(transit_dist(ra.transit, rb.transit)) +
           rb.up;
  }

  /// Total number of undirected links (for tests / reporting).
  std::uint64_t num_links() const { return num_links_; }

 private:
  friend struct TransitStubTestPeer;  // reference-latency oracle (tests)

  TransitStubNetwork() = default;

  // --- transit level ---
  // Dense APSP over all transit nodes (<=256 in practice).
  std::vector<float> transit_dist_;  // row-major T x T
  std::uint32_t num_transit_ = 0;

  // --- stub level ---
  // Per stub domain: APSP over its s nodes and the gateway member index.
  struct StubDomain {
    std::uint32_t first_node = 0;   // PhysNodeId of member 0
    std::uint32_t gateway = 0;      // member index connected to the transit
    PhysNodeId transit = 0;         // parent transit node
    std::vector<float> dist;        // row-major s x s
  };
  std::vector<StubDomain> stub_domains_;
  std::uint32_t stub_size_ = 0;

  // --- per node ---
  // Where a node attaches to the transit level: `up` is the distance from
  // the node to its transit attachment point (member-to-gateway APSP entry
  // plus the transit-stub uplink; 0 for a transit node), `transit` that
  // attachment's transit index, `domain` the node's stub domain (kNoDomain
  // for transit nodes).
  static constexpr std::uint32_t kNoDomain = ~std::uint32_t{0};
  struct Route {
    Seconds up = 0.0;
    std::uint32_t transit = 0;
    std::uint32_t domain = kNoDomain;
  };
  static_assert(sizeof(Route) <= 16, "one route record per physical node");
  std::vector<Route> routes_;

  std::uint32_t num_nodes_ = 0;
  std::uint64_t num_links_ = 0;
  TransitStubParams params_;

  float transit_dist(std::uint32_t a, std::uint32_t b) const {
    return transit_dist_[a * num_transit_ + b];
  }
};

}  // namespace asap::net
