#include "asap/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.hpp"

namespace asap::ads {

SuperpeerHierarchy::SuperpeerHierarchy(search::Ctx& ctx, double fraction)
    : ctx_(ctx),
      mesh_(overlay::Overlay::edgeless(ctx.model.total_node_slots())) {
  const auto slots = ctx.model.total_node_slots();
  is_superpeer_.assign(slots, 0);
  proxy_.assign(slots, kInvalidNode);

  // Promote the top-degree fraction of the initial overlay to superpeers —
  // in deployed systems capable/stable nodes self-select; degree is the
  // observable proxy our simulation has.
  const auto initial = ctx_.model.params().initial_nodes;
  num_superpeers_ = std::min<std::uint32_t>(
      initial, std::max<std::uint32_t>(
                   2, static_cast<std::uint32_t>(std::lround(
                          fraction * static_cast<double>(initial)))));
  std::vector<NodeId> by_degree(initial);
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](NodeId a, NodeId b) {
                     return ctx_.ov.degree(a) > ctx_.ov.degree(b);
                   });
  for (std::uint32_t i = 0; i < num_superpeers_; ++i) {
    is_superpeer_[by_degree[i]] = 1;
  }

  // Superpeer mesh: direct superpeer-superpeer overlay edges, plus edges
  // between superpeers that share a leaf (two-hop adjacency) so sparse
  // topologies stay connected at the top tier.
  for (NodeId n = 0; n < initial; ++n) {
    if (is_superpeer_[n]) {
      for (NodeId nb : ctx_.ov.neighbors(n)) {
        if (nb < n && is_superpeer_[nb]) mesh_.add_edge(n, nb);
      }
    } else {
      const auto nbs = ctx_.ov.neighbors(n);
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        if (!is_superpeer_[nbs[i]]) continue;
        for (std::size_t j = i + 1; j < nbs.size(); ++j) {
          if (is_superpeer_[nbs[j]]) mesh_.add_edge(nbs[i], nbs[j]);
        }
      }
    }
  }

  for (NodeId n = 0; n < initial; ++n) proxy_[n] = assign_proxy(n);
}

NodeId SuperpeerHierarchy::assign_proxy(NodeId n) const {
  if (is_superpeer_[n]) return n;
  NodeId best = kInvalidNode;
  std::uint32_t best_degree = 0;
  for (NodeId nb : ctx_.ov.neighbors(n)) {
    if (is_superpeer_[nb] && ctx_.online(nb) &&
        ctx_.ov.degree(nb) >= best_degree) {
      best = nb;
      best_degree = ctx_.ov.degree(nb);
    }
  }
  if (best != kInvalidNode) return best;
  // No adjacent superpeer: a bootstrap service would hand out the
  // latency-closest one in a real deployment.
  Seconds best_lat = std::numeric_limits<Seconds>::infinity();
  const auto initial = ctx_.model.params().initial_nodes;
  for (NodeId sp = 0; sp < initial; ++sp) {
    if (!is_superpeer_[sp] || !ctx_.online(sp)) continue;
    const Seconds lat = ctx_.latency(n, sp);
    if (lat < best_lat) {
      best_lat = lat;
      best = sp;
    }
  }
  return best;
}

NodeId SuperpeerHierarchy::live_proxy(NodeId n) {
  if (proxy_[n] == kInvalidNode || !ctx_.online(proxy_[n])) {
    proxy_[n] = assign_proxy(n);
  }
  return proxy_[n];
}

void SuperpeerHierarchy::on_join(NodeId n) {
  while (mesh_.num_nodes() < ctx_.ov.num_nodes()) {
    Rng unused(0);  // attach with zero edges draws nothing
    mesh_.attach_new(0, unused);
  }
  proxy_[n] = assign_proxy(n);
}

std::uint64_t SuperpeerHierarchy::memory_bytes() const {
  return mesh_.memory_bytes() + is_superpeer_.capacity() +
         proxy_.capacity() * sizeof(NodeId);
}

}  // namespace asap::ads
