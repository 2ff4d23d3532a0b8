// The superpeer placement of ASAP — the deployment of the paper's footnote
// 3: "ASAP can work well on hierarchical systems in which only super peers
// are responsible for ad representation, delivery, caching and processing."
//
// The protocol is AsapProtocol's; this module holds only what the placement
// decides. A fraction of well-connected peers act as superpeers, linked by
// a mesh their ads spread over, and every leaf is assigned a *proxy*
// superpeer that uploads its ads and answers its searches.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "overlay/overlay.hpp"
#include "search/context.hpp"

namespace asap::ads {

class SuperpeerHierarchy {
 public:
  /// Promotes the top-degree `fraction` of the initial peers (at least
  /// two), builds their mesh and assigns every initial leaf a proxy.
  SuperpeerHierarchy(search::Ctx& ctx, double fraction);

  bool is_superpeer(NodeId n) const { return is_superpeer_[n] != 0; }
  /// The superpeer serving n (n itself for a superpeer); kInvalidNode when
  /// none was reachable at the last assignment.
  NodeId proxy_of(NodeId n) const { return proxy_[n]; }
  std::uint32_t num_superpeers() const { return num_superpeers_; }
  /// Same id space as the overlay; only superpeers have edges.
  const overlay::Overlay& mesh() const { return mesh_; }

  /// n's proxy, re-picked first when the current one is offline;
  /// kInvalidNode when no superpeer is online.
  NodeId live_proxy(NodeId n);
  /// A joiner enters as a leaf: the mesh's id space grows to the
  /// overlay's, and the joiner gets a proxy.
  void on_join(NodeId n);
  /// A returning peer re-picks its proxy (the old one may be gone).
  void on_rejoin(NodeId n) { proxy_[n] = assign_proxy(n); }

  std::uint64_t memory_bytes() const;

 private:
  /// The highest-degree online superpeer neighbour, else the
  /// latency-closest online superpeer.
  NodeId assign_proxy(NodeId n) const;

  search::Ctx& ctx_;
  overlay::Overlay mesh_;
  std::vector<std::uint8_t> is_superpeer_;
  std::vector<NodeId> proxy_;
  std::uint32_t num_superpeers_ = 0;
};

}  // namespace asap::ads
