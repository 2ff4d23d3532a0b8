#include "search/gossip.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace asap::search {

namespace {
constexpr Seconds kInfTime = std::numeric_limits<Seconds>::infinity();
constexpr Bytes kUpdateHeader = 40;
}  // namespace

GossipIndexSearch::GossipIndexSearch(Ctx& ctx, GossipParams params)
    : ctx_(ctx), params_(params) {
  ASAP_REQUIRE(params.round_period > 0.0, "round period must be positive");
  ASAP_REQUIRE(params.redundancy >= 1.0, "redundancy must be >= 1");
  const auto slots = ctx.model.total_node_slots();
  has_filter_.assign(slots, 0);
  // Counting filters are sized lazily via has_filter_; the vector holds
  // default-constructed filters only for nodes that ever share.
  filters_.resize(slots);
}

Seconds GossipIndexSearch::replication_delay() const {
  const double live = std::max(2u, ctx_.live.live_count());
  return params_.round_period * std::ceil(std::log2(live));
}

void GossipIndexSearch::publish(NodeId n, Seconds when) {
  auto snapshot = std::make_shared<const bloom::BloomFilter>(
      filters_[n].projection());
  const Seconds delay = replication_delay();
  const Bytes msg = kUpdateHeader + snapshot->wire_bytes();
  const double copies =
      static_cast<double>(ctx_.live.live_count()) * params_.redundancy;
  const Bytes total = static_cast<Bytes>(copies * static_cast<double>(msg));

  // Deposit the epidemic traffic in per-second chunks across the
  // replication window (identical totals, far fewer ledger operations
  // than one deposit per transmission). The last chunk carries the
  // division remainder so the deposited total matches `total` exactly.
  ASAP_AUDIT_HOOK(ctx_.auditor, on_send(sim::Traffic::kFullAd, total));
  const auto chunks = std::max(1u, static_cast<std::uint32_t>(delay));
  for (std::uint32_t c = 0; c < chunks; ++c) {
    const Bytes part =
        total / chunks + (c + 1 == chunks ? total % chunks : 0);
    ctx_.ledger.deposit(when + delay * (c + 0.5) / chunks,
                        sim::Traffic::kFullAd, part);
  }
  // The epidemic round is this protocol's ad dissemination; the chunked
  // deposits above stand in for ~copies transmissions.
  ASAP_OBS_HOOK(ctx_.obs,
                trace_ad(when, n, "full", static_cast<std::uint64_t>(copies),
                         total));

  auto [it, inserted] = directory_.try_emplace(n);
  if (inserted) sources_.push_back(n);
  it->second.filter = std::move(snapshot);
  it->second.visible_at = when + delay;
}

void GossipIndexSearch::warm_up(Seconds duration) {
  const auto initial = ctx_.model.params().initial_nodes;
  for (NodeId n = 0; n < initial; ++n) {
    const auto& docs = ctx_.live.docs(n);
    if (docs.empty()) continue;
    for (DocId d : docs) {
      for (KeywordId kw : ctx_.model.doc(d).keywords) {
        filters_[n].insert(kw);
      }
    }
    has_filter_[n] = 1;
    publish(n, ctx_.rng.uniform(0.0, duration * 0.5));
  }
}

void GossipIndexSearch::on_trace_event(const trace::TraceEvent& ev) {
  switch (ev.type) {
    case trace::TraceEventType::kQuery:
      run_query(ev);
      break;
    case trace::TraceEventType::kAddDoc:
    case trace::TraceEventType::kRemoveDoc: {
      auto& f = filters_[ev.node];
      for (KeywordId kw : ctx_.model.doc(ev.doc).keywords) {
        if (ev.type == trace::TraceEventType::kAddDoc) {
          f.insert(kw);
        } else if (has_filter_[ev.node]) {
          f.remove(kw);
        }
      }
      has_filter_[ev.node] = 1;
      if (ctx_.online(ev.node)) publish(ev.node, ev.time);
      break;
    }
    case trace::TraceEventType::kJoin:
    case trace::TraceEventType::kRejoin: {
      const auto& docs = ctx_.live.docs(ev.node);
      if (!has_filter_[ev.node] && !docs.empty()) {
        for (DocId d : docs) {
          for (KeywordId kw : ctx_.model.doc(d).keywords) {
            filters_[ev.node].insert(kw);
          }
        }
        has_filter_[ev.node] = 1;
      }
      if (has_filter_[ev.node]) publish(ev.node, ev.time);
      break;
    }
    case trace::TraceEventType::kLeave:
      break;  // directory entries linger; confirmations catch dead sources
  }
}

void GossipIndexSearch::run_query(const trace::TraceEvent& ev) {
  const NodeId p = ev.node;
  // A crash-stop node sends no query, as in every other protocol.
  if (ctx_.faults != nullptr && ctx_.faults->crashed(p, ev.time)) return;
  const auto terms = ev.term_span();
  metrics::SearchRecord rec;
  rec.issued_at = ev.time;  // attributes the search to the fault windows

  // Hash once, then test every directory filter with pure bit probes.
  const bloom::HashedQuery& query = ctx_.hash_query(terms);

  Seconds best = kInfTime;
  std::uint32_t sent = 0;
  for (const NodeId src : sources_) {
    if (sent >= params_.max_confirms) break;
    if (src == p) continue;
    const auto& entry = directory_.at(src);
    if (entry.visible_at > ev.time) continue;  // not yet replicated to p
    if (!query.matches(*entry.filter)) continue;
    ++sent;
    const Seconds lat = ctx_.latency(p, src);
    const Seconds t_req = ev.time + lat;
    ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_request());
    ASAP_AUDIT_HOOK(ctx_.auditor, on_send(sim::Traffic::kConfirm,
                                          ctx_.sizes.confirm_request));
    ctx_.ledger.deposit(t_req, sim::Traffic::kConfirm,
                        ctx_.sizes.confirm_request);
    ASAP_OBS_HOOK(ctx_.obs, on_confirm_sent(p));
    rec.cost_bytes += ctx_.sizes.confirm_request;
    ++rec.messages;
    if (!ctx_.online(src)) {
      ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_timeout());
      ASAP_OBS_HOOK(ctx_.obs, on_confirm_timed_out(p));
      ASAP_OBS_HOOK(ctx_.obs, trace_confirm(t_req, p, src, "timeout"));
      continue;
    }
    const Seconds t_reply = t_req + lat;
    ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_reply());
    ASAP_AUDIT_HOOK(ctx_.auditor, on_send(sim::Traffic::kConfirm,
                                          ctx_.sizes.confirm_reply));
    ctx_.ledger.deposit(t_reply, sim::Traffic::kConfirm,
                        ctx_.sizes.confirm_reply);
    rec.cost_bytes += ctx_.sizes.confirm_reply;
    ++rec.messages;
    if (ctx_.live.node_matches(src, terms, ctx_.model)) {
      best = std::min(best, t_reply);
      ++rec.results;
      ASAP_OBS_HOOK(ctx_.obs, on_confirm_positive(p));
      ASAP_OBS_HOOK(ctx_.obs, trace_confirm(t_reply, p, src, "positive"));
    } else {
      ASAP_OBS_HOOK(ctx_.obs, trace_confirm(t_reply, p, src, "negative"));
    }
  }
  rec.success = best < kInfTime;
  rec.local_hit = rec.success;  // every lookup is local by construction
  rec.response_time = rec.success ? best - ev.time : 0.0;
  ASAP_OBS_HOOK(ctx_.obs,
                trace_query(ev.time, p, rec.success, rec.local_hit,
                            rec.response_time, rec.cost_bytes, rec.messages,
                            rec.results));
  if (!synthetic_query()) stats_.add(rec);
}

}  // namespace asap::search
