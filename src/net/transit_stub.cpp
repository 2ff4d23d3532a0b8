#include "net/transit_stub.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace asap::net {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Floyd-Warshall in place on a row-major n x n matrix.
void floyd_warshall(std::vector<float>& d, std::uint32_t n) {
  for (std::uint32_t k = 0; k < n; ++k) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const float dik = d[i * n + k];
      if (dik == kInf) continue;
      float* di = &d[i * n];
      const float* dk = &d[k * n];
      for (std::uint32_t j = 0; j < n; ++j) {
        const float via = dik + dk[j];
        if (via < di[j]) di[j] = via;
      }
    }
  }
}

/// Builds a connected random graph on n vertices into the distance matrix:
/// a random spanning tree guarantees connectivity, then each remaining pair
/// is linked with probability p. Every edge has weight w. Returns #edges.
std::uint64_t random_connected_graph(std::vector<float>& d, std::uint32_t n,
                                     double p, float w, Rng& rng) {
  std::fill(d.begin(), d.end(), kInf);
  for (std::uint32_t i = 0; i < n; ++i) d[i * n + i] = 0.0F;
  std::uint64_t edges = 0;
  auto connect = [&](std::uint32_t a, std::uint32_t b) {
    if (d[a * n + b] == kInf) {
      d[a * n + b] = w;
      d[b * n + a] = w;
      ++edges;
    }
  };
  // Random spanning tree: attach each vertex to a uniformly random earlier
  // vertex (random recursive tree).
  for (std::uint32_t i = 1; i < n; ++i) {
    connect(i, static_cast<std::uint32_t>(rng.below(i)));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (d[i * n + j] == kInf && rng.chance(p)) connect(i, j);
    }
  }
  return edges;
}

}  // namespace

TransitStubParams TransitStubParams::small() {
  TransitStubParams p;
  p.transit_domains = 4;
  p.transit_nodes_per_domain = 8;
  p.stub_domains_per_transit = 4;
  p.stub_nodes_per_domain = 40;
  return p;  // 32 + 32*4*40 = 5,152 physical nodes
}

TransitStubParams TransitStubParams::paper() {
  return TransitStubParams{};  // defaults match the paper: 51,984 nodes
}

TransitStubNetwork TransitStubNetwork::generate(
    const TransitStubParams& params, Rng& rng) {
  ASAP_REQUIRE(params.transit_domains >= 1, "need at least 1 transit domain");
  ASAP_REQUIRE(params.transit_nodes_per_domain >= 1,
               "need at least 1 transit node per domain");
  ASAP_REQUIRE(params.stub_nodes_per_domain >= 1,
               "need at least 1 stub node per domain");
  ASAP_REQUIRE(params.intra_transit_edge_prob >= 0.0 &&
                   params.intra_transit_edge_prob <= 1.0,
               "edge probability out of [0,1]");
  ASAP_REQUIRE(params.intra_stub_edge_prob >= 0.0 &&
                   params.intra_stub_edge_prob <= 1.0,
               "edge probability out of [0,1]");

  TransitStubNetwork net;
  net.params_ = params;
  net.num_transit_ = params.total_transit_nodes();
  net.stub_size_ = params.stub_nodes_per_domain;
  net.num_nodes_ = params.total_nodes();

  const std::uint32_t t = net.num_transit_;
  const std::uint32_t per_dom = params.transit_nodes_per_domain;

  // --- transit graph ---------------------------------------------------
  net.transit_dist_.assign(static_cast<std::size_t>(t) * t, kInf);
  auto& td = net.transit_dist_;
  for (std::uint32_t i = 0; i < t; ++i) td[i * t + i] = 0.0F;

  auto connect_transit = [&](std::uint32_t a, std::uint32_t b, float w) {
    if (td[a * t + b] > w) {
      td[a * t + b] = w;
      td[b * t + a] = w;
      ++net.num_links_;
    }
  };

  // Intra-domain: connected random graph per domain (prob 0.6, 20 ms).
  {
    const auto w = static_cast<float>(params.intra_transit_latency);
    std::vector<float> dom(static_cast<std::size_t>(per_dom) * per_dom);
    for (std::uint32_t dmn = 0; dmn < params.transit_domains; ++dmn) {
      net.num_links_ += random_connected_graph(
          dom, per_dom, params.intra_transit_edge_prob, w, rng);
      const std::uint32_t base = dmn * per_dom;
      for (std::uint32_t i = 0; i < per_dom; ++i) {
        for (std::uint32_t j = 0; j < per_dom; ++j) {
          if (i != j && dom[i * per_dom + j] == w) {
            td[(base + i) * t + (base + j)] = w;
          }
        }
      }
    }
  }

  // Inter-domain: every pair of domains joined by one edge between random
  // representatives (domain-level complete graph, 50 ms).
  {
    const auto w = static_cast<float>(params.inter_transit_latency);
    for (std::uint32_t a = 0; a < params.transit_domains; ++a) {
      for (std::uint32_t b = a + 1; b < params.transit_domains; ++b) {
        const auto na =
            a * per_dom + static_cast<std::uint32_t>(rng.below(per_dom));
        const auto nb =
            b * per_dom + static_cast<std::uint32_t>(rng.below(per_dom));
        connect_transit(na, nb, w);
      }
    }
  }

  floyd_warshall(net.transit_dist_, t);

  // --- stub domains -----------------------------------------------------
  const std::uint32_t s = params.stub_nodes_per_domain;
  const std::uint32_t num_sd = params.total_stub_domains();
  net.stub_domains_.resize(num_sd);
  const auto ws = static_cast<float>(params.intra_stub_latency);
  std::uint32_t next_node = t;  // stub PhysNodeIds start after transit nodes
  for (std::uint32_t sd = 0; sd < num_sd; ++sd) {
    StubDomain& dom = net.stub_domains_[sd];
    dom.first_node = next_node;
    next_node += s;
    dom.transit = sd / params.stub_domains_per_transit;
    dom.gateway = static_cast<std::uint32_t>(rng.below(s));
    dom.dist.resize(static_cast<std::size_t>(s) * s);
    net.num_links_ += random_connected_graph(
        dom.dist, s, params.intra_stub_edge_prob, ws, rng);
    ++net.num_links_;  // gateway <-> transit uplink
    floyd_warshall(dom.dist, s);
  }
  ASAP_CHECK(next_node == net.num_nodes_);

  // --- route records ----------------------------------------------------
  net.routes_.resize(net.num_nodes_);
  for (std::uint32_t n = 0; n < t; ++n) net.routes_[n].transit = n;
  for (std::uint32_t sd = 0; sd < num_sd; ++sd) {
    const StubDomain& dom = net.stub_domains_[sd];
    for (std::uint32_t m = 0; m < s; ++m) {
      Route& r = net.routes_[dom.first_node + m];
      r.up = static_cast<Seconds>(dom.dist[m * s + dom.gateway]) +
             params.transit_stub_latency;
      r.transit = dom.transit;
      r.domain = sd;
    }
  }
  return net;
}

TransitStubNetwork::NodeKind TransitStubNetwork::kind(PhysNodeId n) const {
  ASAP_DCHECK(n < num_nodes_);
  return n < num_transit_ ? NodeKind::kTransit : NodeKind::kStub;
}

PhysNodeId TransitStubNetwork::parent_transit(PhysNodeId n) const {
  ASAP_REQUIRE(n < num_nodes_, "parent_transit requires a network node");
  return routes_[n].transit;
}

std::uint32_t TransitStubNetwork::stub_domain_of(PhysNodeId n) const {
  ASAP_REQUIRE(n >= num_transit_ && n < num_nodes_,
               "stub_domain_of requires a stub node");
  return routes_[n].domain;
}

}  // namespace asap::net
