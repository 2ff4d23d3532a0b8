// Tie-order oracle tests for the flood kernel's heap.
//
// FloodHeap specifies its hole moves as those of libstdc++'s
// std::push_heap / std::pop_heap under std::greater<>, so copies that
// arrive at the same time pop in the order a std::priority_queue pops
// them. The tests below hold it to that: the heap against a
// std::priority_queue on a tie-heavy stream, and search::flood /
// search::gsa against the priority_queue flood they replaced, kept here
// as a slow reference, on overlays whose hop latencies tie on purpose.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <tuple>
#include <vector>

#include "../support/test_world.hpp"
#include "search/flood_heap.hpp"
#include "search/propagation.hpp"

namespace asap::search {
namespace {

using asap::testing::TestWorld;

struct RefMsg {
  Seconds time;
  NodeId node;
  NodeId from;
  std::uint32_t ttl;
  bool operator>(const RefMsg& other) const { return time > other.time; }
};

using RefQueue =
    std::priority_queue<RefMsg, std::vector<RefMsg>, std::greater<>>;

/// The TTL search::gsa floods with: effectively unbounded.
constexpr std::uint32_t kGsaTtl = std::numeric_limits<std::uint32_t>::max() - 1;

/// The flood kernel as it was before FloodHeap: a fresh
/// std::priority_queue per propagation, otherwise line for line the same
/// (the fault and audit hooks are left out; these tests arm neither).
template <typename VisitFn>
PropagationStats reference_flood(
    Ctx& ctx, NodeId origin, Seconds start, std::uint32_t ttl,
    Bytes msg_size, sim::Traffic cat, VisitFn&& visit,
    std::uint64_t max_messages = std::numeric_limits<std::uint64_t>::max()) {
  PropagationStats stats;
  if (ttl == 0 || max_messages == 0 || !ctx.online(origin)) return stats;
  ctx.begin_epoch();
  ctx.mark_visited(origin);

  RefQueue pq;
  auto send_to_neighbors = [&](NodeId from_node, NodeId prev, Seconds t,
                               std::uint32_t remaining) {
    for (NodeId nb : ctx.graph().neighbors(from_node)) {
      if (stats.messages >= max_messages) return;
      if (nb == prev) continue;
      if (!ctx.online(nb)) continue;
      ++stats.messages;
      stats.bytes += msg_size;
      if (ctx.transmission_lost(from_node, nb, t)) {
        ctx.ledger.deposit(t, cat, msg_size);
        continue;
      }
      pq.push({t + ctx.hop_latency(from_node, nb), nb, from_node, remaining});
    }
  };
  send_to_neighbors(origin, kInvalidNode, start, ttl - 1);

  while (!pq.empty()) {
    const RefMsg m = pq.top();
    pq.pop();
    ctx.ledger.deposit(m.time, cat, msg_size);
    if (ctx.visited(m.node)) continue;
    ctx.mark_visited(m.node);
    ++stats.unique_nodes;
    const VisitAction action = visit(m.node, m.time, ttl - m.ttl);
    if (action == VisitAction::kStopAll) {
      while (!pq.empty()) {
        ctx.ledger.deposit(pq.top().time, cat, msg_size);
        pq.pop();
      }
      break;
    }
    if (m.ttl > 0) send_to_neighbors(m.node, m.from, m.time, m.ttl - 1);
  }
  return stats;
}

TEST(FloodHeap, PopsTiesInPriorityQueueOrder) {
  Rng rng(2024);
  FloodHeap heap;
  for (int round = 0; round < 4; ++round) {
    heap.clear();  // reuse: capacity kept, contents gone
    RefQueue ref;
    std::uint64_t pops = 0;
    for (int op = 0; op < 20'000; ++op) {
      // Pushes outnumber pops 3:2, so the heap grows to thousands of
      // entries; five distinct times make nearly every pop a tie.
      if (ref.empty() || rng.below(5) < 3) {
        const Seconds t = 0.25 * static_cast<double>(rng.below(5));
        const auto node = static_cast<NodeId>(op);
        const auto from = static_cast<NodeId>(rng.below(1'000));
        const auto ttl = static_cast<std::uint32_t>(rng.below(7));
        heap.push(t, {node, from, ttl});
        ref.push({t, node, from, ttl});
      } else {
        ASSERT_FALSE(heap.empty());
        const auto got = heap.pop();
        const RefMsg want = ref.top();
        ref.pop();
        ASSERT_EQ(std::tie(got.time, got.hop.node, got.hop.from, got.hop.ttl),
                  std::tie(want.time, want.node, want.from, want.ttl))
            << "round " << round << ", pop " << pops;
        ++pops;
      }
      ASSERT_EQ(heap.size(), ref.size());
    }
    while (!ref.empty()) {  // drain: the kStopAll path
      const auto got = heap.pop();
      ASSERT_EQ(std::tie(got.time, got.hop.node),
                std::tie(ref.top().time, ref.top().node));
      ref.pop();
    }
    EXPECT_TRUE(heap.empty());
  }
}

/// A test world whose overlay nodes share `phys_nodes` physical hosts, so
/// hop latencies take a few values (all zero for one host) and arrival
/// times tie throughout a flood.
struct TiedWorld : TestWorld {
  TiedWorld(std::uint32_t phys_nodes, double loss) : TestWorld(4242) {
    for (std::size_t i = 0; i < node_phys.size(); ++i) {
      node_phys[i] = node_phys[i % phys_nodes];
    }
    ctx.message_loss = loss;
  }
};

struct Visit {
  NodeId node;
  Seconds arrival;
  std::uint32_t hops;
  bool operator==(const Visit&) const = default;
};

/// One propagation: a flood of `ttl` hops, or a GSA (kGsaTtl) capped at
/// `budget` messages; the visitor returns kStopAll at visit `stop_at`
/// (0 = never).
struct Propagation {
  NodeId origin = 0;
  Seconds start = 0.0;
  std::uint32_t ttl = kGsaTtl;
  std::uint64_t budget = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t stop_at = 0;
};

struct Outcome {
  std::vector<Visit> visits;
  PropagationStats stats;
  std::uint64_t ledger_digest = 0;
  std::uint64_t rng_after = 0;
};

/// Runs `p` on `w` through search::flood / search::gsa, or through the
/// reference. The visitor draws from the world's RNG on every visit (as
/// ASAP(FLD)'s ad caching does), so a reordering also shifts later draws.
Outcome run(TiedWorld& w, const Propagation& p, bool reference) {
  Outcome out;
  auto visit = [&](NodeId n, Seconds t, std::uint32_t hops) {
    out.visits.push_back({n, t, hops});
    w.rng.below(3);
    return out.visits.size() == p.stop_at ? VisitAction::kStopAll
                                          : VisitAction::kContinue;
  };
  const auto cat = sim::Traffic::kQuery;
  if (reference) {
    out.stats = reference_flood(w.ctx, p.origin, p.start, p.ttl, 80, cat,
                                visit, p.budget);
  } else if (p.ttl == kGsaTtl) {
    out.stats = gsa(w.ctx, p.origin, p.start, p.budget, 80, cat, visit);
  } else {
    out.stats =
        flood(w.ctx, p.origin, p.start, p.ttl, 80, cat, visit, p.budget);
  }
  out.ledger_digest = w.ledger.digest();
  out.rng_after = w.rng.next_u64();
  return out;
}

/// Two identical tied worlds: one runs the kernels, the other the
/// reference, propagation for propagation.
class FloodOracle
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, double>> {
 protected:
  FloodOracle()
      : fast_(std::get<0>(GetParam()), std::get<1>(GetParam())),
        slow_(std::get<0>(GetParam()), std::get<1>(GetParam())) {}

  /// Runs `p` on both worlds, expects the same outcome and returns the
  /// reference's.
  Outcome expect_same(const Propagation& p) {
    const Outcome got = run(fast_, p, false);
    const Outcome want = run(slow_, p, true);
    EXPECT_EQ(got.visits, want.visits);
    EXPECT_EQ(got.stats.messages, want.stats.messages);
    EXPECT_EQ(got.stats.bytes, want.stats.bytes);
    EXPECT_EQ(got.stats.unique_nodes, want.stats.unique_nodes);
    EXPECT_EQ(got.ledger_digest, want.ledger_digest);
    EXPECT_EQ(got.rng_after, want.rng_after);
    return want;
  }

  TiedWorld fast_, slow_;
};

TEST_P(FloodOracle, FloodMatchesPriorityQueueReference) {
  for (const std::uint32_t ttl : {1u, 2u, 6u, 30u}) {
    for (const NodeId origin : {0u, 17u, 123u}) {
      SCOPED_TRACE(::testing::Message() << "ttl " << ttl << " origin "
                                        << origin);
      const Outcome want =
          expect_same({.origin = origin, .start = 5.0, .ttl = ttl});
      EXPECT_GT(want.visits.size(), 0u);
    }
  }
}

TEST_P(FloodOracle, GsaMatchesReferenceAtEveryBudget) {
  // Every budget up to past the full flood's message count, so some cut
  // falls inside a run of tied arrivals (with one physical host, every
  // arrival ties).
  const std::uint64_t full = expect_same({}).stats.messages;
  ASSERT_GT(full, 100u);
  for (std::uint64_t budget = 1; budget <= full + 1; ++budget) {
    SCOPED_TRACE(::testing::Message() << "budget " << budget);
    expect_same({.budget = budget});
    if (HasFailure()) return;
  }
}

TEST_P(FloodOracle, StopAllDrainsInReferenceOrder) {
  for (const std::uint64_t stop_at : {1u, 2u, 7u, 40u, 150u}) {
    SCOPED_TRACE(::testing::Message() << "stop at visit " << stop_at);
    const Outcome want = expect_same(
        {.origin = 3, .start = 1.0, .ttl = 6, .stop_at = stop_at});
    EXPECT_EQ(want.visits.size(), stop_at);
    // The GSA path stops the same way, mid-budget.
    expect_same(
        {.origin = 3, .start = 1.0, .budget = 900, .stop_at = stop_at});
  }
}

INSTANTIATE_TEST_SUITE_P(
    TiedLatencies, FloodOracle,
    ::testing::Values(std::make_tuple(1u, 0.0), std::make_tuple(3u, 0.0),
                      std::make_tuple(3u, 0.2), std::make_tuple(40u, 0.0)));

TEST(FloodTies, OneHostMakesEveryArrivalTie) {
  // Guards the premise of the one-host cases above: all arrivals share
  // the start time, so the heap's tie order alone sets the visit order.
  TiedWorld w(1, 0.0);
  std::vector<Seconds> arrivals;
  flood(w.ctx, 0, 2.5, 30, 80, sim::Traffic::kQuery,
        [&](NodeId, Seconds t, std::uint32_t) {
          arrivals.push_back(t);
          return VisitAction::kContinue;
        });
  ASSERT_GT(arrivals.size(), 100u);
  for (const Seconds t : arrivals) EXPECT_EQ(t, 2.5);
}

}  // namespace
}  // namespace asap::search
