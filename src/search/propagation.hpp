// Propagation kernels: flooding, random walk, and the budgeted hybrid
// scheme (GSA, Gkantsidis et al. [12]).
//
// These expand a message's journey inline (DESIGN.md §3): bytes land in the
// BandwidthLedger at the virtual time of each hop, and a visitor callback
// fires per arrival so callers implement query matching (baselines) or ad
// caching (ASAP) on top. Node liveness is evaluated at propagation start;
// only online neighbors are forwarded to (peers know neighbor liveness via
// keep-alives, which the paper excludes from system load).
//
// Callback contract: VisitAction fn(NodeId node, Seconds arrival,
// std::uint32_t hops). Flooding invokes it on a node's *first* arrival;
// walks invoke it on every arrival (revisits included — caching/matching
// are idempotent for all callers).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "search/context.hpp"
#include "sim/bandwidth.hpp"

namespace asap::search {

enum class VisitAction : std::uint8_t {
  kContinue,    // keep going
  kStopWalker,  // terminate this walker (no-op for floods)
  kStopAll,     // terminate the whole propagation
};

struct PropagationStats {
  std::uint64_t messages = 0;
  Bytes bytes = 0;
  std::uint32_t unique_nodes = 0;  // distinct nodes visited (flood only)
};

/// Flood with duplicate suppression: a node forwards the first copy it
/// receives (TTL permitting); later copies still cost bandwidth but are
/// dropped. `ttl` is the number of overlay hops a message may travel.
/// `max_messages` optionally caps the total transmissions (the budgeted
/// flood behind the GSA scheme); forwarding stops once the cap is hit.
template <typename VisitFn>
PropagationStats flood(Ctx& ctx, NodeId origin, Seconds start,
                       std::uint32_t ttl, Bytes msg_size, sim::Traffic cat,
                       VisitFn&& visit,
                       std::uint64_t max_messages =
                           std::numeric_limits<std::uint64_t>::max()) {
  PropagationStats stats;
  if (ttl == 0 || max_messages == 0 || !ctx.online(origin)) return stats;
  ctx.begin_epoch();
  ctx.mark_visited(origin);

  // In-flight copies pop in arrival-time order; ties pop in the heap's
  // specified order (search/flood_heap.hpp).
  FloodHeap& pq = ctx.flood_heap();
  pq.clear();
  auto send_to_neighbors = [&](NodeId from_node, NodeId prev, Seconds t,
                               std::uint32_t remaining) {
    for (NodeId nb : ctx.graph().neighbors(from_node)) {
      if (stats.messages >= max_messages) return;
      if (nb == prev) continue;
      if (!ctx.online(nb)) {
        if (ctx.dead_unnoticed(nb, t)) {
          // Crash-stop before detection: keep-alives have not yet told the
          // sender, so it transmits — and pays — into the void.
          ++stats.messages;
          stats.bytes += msg_size;
          ASAP_AUDIT_HOOK(ctx.auditor, on_send(cat, msg_size));
          ctx.ledger.deposit(t, cat, msg_size);
          ASAP_OBS_HOOK(ctx.obs, on_drop_dead(cat));
          ctx.faults->count_dead_send();
          continue;
        }
        // Liveness skip: keep-alives told the sender not to bother.
        ASAP_OBS_HOOK(ctx.obs, on_drop_offline(cat));
        continue;
      }
      ++stats.messages;
      stats.bytes += msg_size;
      ASAP_AUDIT_HOOK(ctx.auditor, on_send(cat, msg_size));
      if (ctx.transmission_lost(from_node, nb, t)) {
        // The sender paid for the transmission; nothing arrives.
        ctx.ledger.deposit(t, cat, msg_size);
        ASAP_OBS_HOOK(ctx.obs, on_drop_loss(cat));
        continue;
      }
      pq.push(t + ctx.hop_latency(from_node, nb), {nb, from_node, remaining});
    }
  };
  send_to_neighbors(origin, kInvalidNode, start, ttl - 1);

  while (!pq.empty()) {
    const auto [arrival, m] = pq.pop();
    ctx.ledger.deposit(arrival, cat, msg_size);
    if (ctx.visited(m.node)) {  // duplicate: paid for, dropped
      ASAP_OBS_HOOK(ctx.obs, on_drop_duplicate(cat));
      continue;
    }
    ctx.mark_visited(m.node);
    ++stats.unique_nodes;
    ASAP_AUDIT_HOOK(ctx.auditor, on_delivery(ctx.online(m.node)));
    const VisitAction action = visit(m.node, arrival, ttl - m.ttl);
    if (action == VisitAction::kStopAll) {
      // In-flight copies were already counted as sent and still arrive at
      // their receivers; deposit them so byte conservation holds instead
      // of silently dropping paid-for traffic.
      while (!pq.empty()) ctx.ledger.deposit(pq.pop().time, cat, msg_size);
      break;
    }
    if (m.ttl > 0) {
      send_to_neighbors(m.node, m.from, arrival, m.ttl - 1);
    } else {
      // The copy dies here: TTL exhausted.
      ASAP_OBS_HOOK(ctx.obs, on_drop_ttl(cat));
    }
  }
  return stats;
}

/// `walkers` independent walks of at most `per_walker_budget` hops each:
/// the one hop loop behind random_walk and biased_walk. A walker's
/// choices are its online (or crashed-but-undetected) neighbors other than
/// the one it just came from; a dead end falls back to that backtrack.
/// `pick(choices)` returns the index of the next hop.
template <typename PickFn, typename VisitFn>
PropagationStats walk(Ctx& ctx, NodeId origin, Seconds start,
                      std::uint32_t walkers, std::uint64_t per_walker_budget,
                      Bytes msg_size, sim::Traffic cat, PickFn&& pick,
                      VisitFn&& visit) {
  PropagationStats stats;
  if (per_walker_budget == 0 || !ctx.online(origin)) return stats;
  std::vector<NodeId> choices;
  for (std::uint32_t w = 0; w < walkers; ++w) {
    NodeId cur = origin;
    NodeId prev = kInvalidNode;
    Seconds t = start;
    for (std::uint64_t hop = 1; hop <= per_walker_budget; ++hop) {
      choices.clear();
      for (NodeId nb : ctx.graph().neighbors(cur)) {
        if ((ctx.online(nb) || ctx.dead_unnoticed(nb, t)) && nb != prev) {
          choices.push_back(nb);
        }
      }
      if (choices.empty()) {
        // Dead end: allow the backtrack if the previous node is still up.
        if (prev != kInvalidNode &&
            (ctx.online(prev) || ctx.dead_unnoticed(prev, t))) {
          choices.push_back(prev);
        } else {
          break;
        }
      }
      const NodeId next = choices[pick(std::span<const NodeId>(choices))];
      t += ctx.hop_latency(cur, next);
      ++stats.messages;
      stats.bytes += msg_size;
      ASAP_AUDIT_HOOK(ctx.auditor, on_send(cat, msg_size));
      ctx.ledger.deposit(t, cat, msg_size);
      if (!ctx.online(next)) {  // crashed but undetected: hop paid for,
                                // nothing there; walker stays and retries
        ASAP_OBS_HOOK(ctx.obs, on_drop_dead(cat));
        ctx.faults->count_dead_send();
        continue;
      }
      if (ctx.transmission_lost(cur, next, t)) {  // hop lost: budget spent,
                                                  // walker stays and retries
        ASAP_OBS_HOOK(ctx.obs, on_drop_loss(cat));
        continue;
      }
      ASAP_AUDIT_HOOK(ctx.auditor, on_delivery(ctx.online(next)));
      const VisitAction action =
          visit(next, t, static_cast<std::uint32_t>(hop));
      if (action == VisitAction::kStopAll) return stats;
      if (action == VisitAction::kStopWalker) break;
      prev = cur;
      cur = next;
    }
  }
  return stats;
}

/// Random walks: each hop goes to a uniformly random choice, so a walker
/// avoids an immediate backtrack whenever any other neighbor is up.
template <typename VisitFn>
PropagationStats random_walk(Ctx& ctx, NodeId origin, Seconds start,
                             std::uint32_t walkers,
                             std::uint64_t per_walker_budget, Bytes msg_size,
                             sim::Traffic cat, VisitFn&& visit) {
  return walk(
      ctx, origin, start, walkers, per_walker_budget, msg_size, cat,
      [&ctx](std::span<const NodeId> choices) {
        return ctx.rng.below(choices.size());
      },
      std::forward<VisitFn>(visit));
}

/// Weighted random walks: like random_walk, but the next hop is drawn
/// with probability proportional to `weight(node)` among the choices.
/// Used by the interest-biased ad-delivery extension (walkers steer toward
/// peers whose interests overlap the ad's topics, exploiting the interest
/// clustering the paper's design leans on). A uniform weight reduces to
/// random_walk's distribution.
template <typename VisitFn, typename WeightFn>
PropagationStats biased_walk(Ctx& ctx, NodeId origin, Seconds start,
                             std::uint32_t walkers,
                             std::uint64_t per_walker_budget, Bytes msg_size,
                             sim::Traffic cat, WeightFn&& weight,
                             VisitFn&& visit) {
  std::vector<double> weights;
  auto pick = [&](std::span<const NodeId> choices) {
    weights.clear();
    double total = 0.0;
    for (const NodeId nb : choices) {
      weights.push_back(std::max(1e-9, weight(nb)));
      total += weights.back();
    }
    double u = ctx.rng.uniform01() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      u -= weights[i];
      if (u <= 0.0) return i;
    }
    return weights.size() - 1;
  };
  return walk(ctx, origin, start, walkers, per_walker_budget, msg_size, cat,
              pick, std::forward<VisitFn>(visit));
}

/// GSA: the generalized budgeted search of Gkantsidis et al. [12] — a
/// flood whose total message count is capped by the query's budget. The
/// expansion proceeds in arrival-time order, so it behaves exactly like
/// flooding until the budget runs out; response latency is flood-like
/// (the paper observes GSA response times comparable to flooding) while
/// cost and reach are bounded by the budget.
template <typename VisitFn>
PropagationStats gsa(Ctx& ctx, NodeId origin, Seconds start,
                     std::uint64_t budget, Bytes msg_size, sim::Traffic cat,
                     VisitFn&& visit) {
  return flood(ctx, origin, start,
               std::numeric_limits<std::uint32_t>::max() - 1, msg_size, cat,
               std::forward<VisitFn>(visit), budget);
}

}  // namespace asap::search
