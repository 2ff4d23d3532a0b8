// Shared run context handed to every search protocol.
//
// Bundles non-owning references to the world (overlay, physical network,
// content ground truth), the simulation services (engine, ledger, RNG) and
// reusable scratch space for the propagation kernels. One Ctx exists per
// simulation run; protocols never own world state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bloom/hashed_query.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "faults/injector.hpp"
#include "net/transit_stub.hpp"
#include "obs/observer.hpp"
#include "overlay/overlay.hpp"
#include "search/flood_heap.hpp"
#include "sim/bandwidth.hpp"
#include "sim/engine.hpp"
#include "sim/size_model.hpp"
#include "trace/content_model.hpp"
#include "trace/live_content.hpp"

namespace asap::search {

struct Ctx {
  Ctx(overlay::Overlay& ov_in, const net::TransitStubNetwork& phys_in,
      const std::vector<PhysNodeId>& node_phys_in,
      const trace::ContentModel& model_in, const trace::LiveContent& live_in,
      const trace::ContentIndex& index_in, sim::Engine& engine_in,
      sim::BandwidthLedger& ledger_in, const sim::SizeModel& sizes_in,
      Rng& rng_in)
      : ov(ov_in),
        phys(phys_in),
        node_phys(node_phys_in),
        model(model_in),
        live(live_in),
        index(index_in),
        engine(engine_in),
        ledger(ledger_in),
        sizes(sizes_in),
        rng(rng_in) {}

  overlay::Overlay& ov;
  const net::TransitStubNetwork& phys;
  const std::vector<PhysNodeId>& node_phys;  // overlay slot -> physical node
  const trace::ContentModel& model;
  const trace::LiveContent& live;
  const trace::ContentIndex& index;
  sim::Engine& engine;
  sim::BandwidthLedger& ledger;
  sim::SizeModel sizes;
  Rng& rng;

  /// One-way propagation latency between two overlay nodes.
  Seconds latency(NodeId a, NodeId b) const {
    return phys.latency(node_phys[a], node_phys[b]);
  }

  bool online(NodeId n) const { return live.online(n); }

  /// The graph propagation kernels walk. Normally the main overlay, but a
  /// protocol can temporarily substitute another view — the superpeer
  /// extension routes ad deliveries over the superpeer mesh (see
  /// GraphScope below).
  const overlay::Overlay& graph() const {
    return graph_override_ != nullptr ? *graph_override_ : ov;
  }

  /// Failure injection: probability that any single overlay transmission
  /// is lost in transit (sender still pays the bandwidth; the receiver
  /// never sees it). 0 by default; robustness benches sweep it.
  double message_loss = 0.0;

  /// Optional run-time invariant auditor (sim/audit.hpp). Not owned; when
  /// null the kernels' audit hooks reduce to one predictable branch.
  sim::SimAuditor* auditor = nullptr;

  /// Optional passive observer (obs/observer.hpp). Not owned; same
  /// single-branch cost when null (ASAP_OBS_HOOK). Observers must never
  /// perturb the run — see sim/observe.hpp for the contract.
  obs::RunObserver* obs = nullptr;

  /// Optional fault injector (faults/injector.hpp). Not owned; null means
  /// the fault layer is absent and every fault-aware path below reduces to
  /// the historical behaviour bit for bit (no extra RNG draws).
  faults::FaultInjector* faults = nullptr;

  /// Rolls the loss dice for one transmission.
  bool transmission_lost() {
    return message_loss > 0.0 && rng.chance(message_loss);
  }

  /// Loss roll for one overlay hop `from -> to` at virtual time `t`: the
  /// base uniform loss first (preserving the historical draw order), then
  /// the fault layer's per-link loss / burst windows / partition cuts.
  bool transmission_lost(NodeId from, NodeId to, Seconds t) {
    const bool base = transmission_lost();
    if (faults == nullptr) return base;
    return faults->transmission_lost(node_phys[from], node_phys[to], t) || base;
  }

  /// Fault-layer-only loss roll for direct (non-overlay) exchanges such as
  /// confirmation round trips, which historically ignore `message_loss`.
  bool direct_lost(NodeId from, NodeId to, Seconds t) {
    return faults != nullptr &&
           faults->transmission_lost(node_phys[from], node_phys[to], t);
  }

  /// One-way hop latency with the fault layer's jitter applied (identity
  /// when no injector or jitter is configured — no RNG draw).
  Seconds hop_latency(NodeId a, NodeId b) {
    const Seconds base = latency(a, b);
    return faults != nullptr ? faults->hop_latency(base) : base;
  }

  /// True when `n` crashed at or before `t` but the overlay has not yet
  /// detected it: senders still pay bandwidth for messages to `n`.
  bool dead_unnoticed(NodeId n, Seconds t) const {
    return faults != nullptr && faults->dead_unnoticed(n, t);
  }

  /// Hashes a query's terms exactly once (bloom/hashed_query.hpp) into a
  /// Ctx-owned scratch instance reused across queries, so every per-node,
  /// per-entry filter test downstream is pure bit tests. The reference is
  /// valid until the next call; propagation kernels are single-query, so
  /// one slot suffices.
  const bloom::HashedQuery& hash_query(std::span<const KeywordId> terms,
                                       const bloom::BloomParams& params =
                                           bloom::BloomParams{}) {
    hashed_query_.assign(terms, params);
    return hashed_query_;
  }

  /// Opens a fresh visited-marker epoch; nodes test as unvisited until
  /// marked. O(1) amortized (epoch counter instead of clearing arrays).
  std::uint32_t begin_epoch() {
    if (epoch_mark_.size() < ov.num_nodes()) {
      epoch_mark_.resize(ov.num_nodes(), 0);
    }
    return ++epoch_;
  }
  bool visited(NodeId n) const { return epoch_mark_[n] == epoch_; }
  void mark_visited(NodeId n) { epoch_mark_[n] = epoch_; }

  /// The flood kernel's in-flight heap, scratch like the epoch marks and
  /// under the same one-propagation-at-a-time contract, so its capacity
  /// is reused across propagations.
  FloodHeap& flood_heap() { return flood_heap_; }

 private:
  friend class GraphScope;
  const overlay::Overlay* graph_override_ = nullptr;
  std::vector<std::uint32_t> epoch_mark_;
  std::uint32_t epoch_ = 0;
  FloodHeap flood_heap_;
  bloom::HashedQuery hashed_query_;
};

/// RAII substitution of the propagation graph. Node ids, liveness and
/// latency are shared with the main overlay — the substitute must use the
/// same id space (e.g. a same-size overlay whose non-members are simply
/// edgeless).
class GraphScope {
 public:
  GraphScope(Ctx& ctx, const overlay::Overlay& graph)
      : ctx_(ctx), prev_(ctx.graph_override_) {
    ASAP_REQUIRE(graph.num_nodes() >= ctx.ov.num_nodes(),
                 "substitute graph must cover the overlay's id space");
    ctx_.graph_override_ = &graph;
  }
  ~GraphScope() { ctx_.graph_override_ = prev_; }
  GraphScope(const GraphScope&) = delete;
  GraphScope& operator=(const GraphScope&) = delete;

 private:
  Ctx& ctx_;
  const overlay::Overlay* prev_;
};

}  // namespace asap::search
