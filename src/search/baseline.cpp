#include "search/baseline.hpp"

#include <algorithm>
#include <limits>

#include "search/propagation.hpp"

namespace asap::search {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kFlooding:
      return "flooding";
    case Scheme::kRandomWalk:
      return "random-walk";
    case Scheme::kGsa:
      return "gsa";
  }
  return "?";
}

BaselineParams BaselineParams::paper(Scheme s) {
  BaselineParams p;
  p.scheme = s;
  return p;
}

BaselineParams BaselineParams::small(Scheme s) {
  BaselineParams p;
  p.scheme = s;
  // The paper network has 10,000 peers; the small preset has ~2,000. The
  // flood TTL keeps its value (reach saturates either way); walk and GSA
  // budgets scale by the population ratio so relative coverage matches.
  p.walker_ttl = 256;
  p.gsa_budget = 1'600;
  return p;
}

BaselineSearch::BaselineSearch(Ctx& ctx, BaselineParams params)
    : ctx_(ctx), params_(params) {}

std::string BaselineSearch::name() const {
  return scheme_name(params_.scheme);
}

void BaselineSearch::on_trace_event(const trace::TraceEvent& event) {
  if (event.type == trace::TraceEventType::kQuery) run_query(event);
}

void BaselineSearch::run_query(const trace::TraceEvent& event) {
  const NodeId origin = event.node;
  const Seconds t0 = event.time;
  // A crash-stop node issues nothing: the trace's query never happens, for
  // any algorithm (the fault plan is world-seeded, so all algorithms skip
  // the same queries and success rates stay comparable).
  if (ctx_.faults != nullptr && ctx_.faults->crashed(origin, t0)) return;
  const auto terms = event.term_span();

  // Ground truth: online nodes holding a document with all terms. Each
  // holder gets this query's stamp, so a visit tests membership with one
  // array read instead of scanning the node's document list. The
  // GSA/flood/walk baselines test no Bloom filters, so they have nothing
  // to gain from the hashed-query fast path (ctx_.hash_query) the
  // filter-scanning protocols use.
  const auto matching =
      ctx_.index.matching_nodes(terms, ctx_.live, ctx_.model);
  const std::size_t span = std::max<std::size_t>(
      ctx_.graph().num_nodes(),
      matching.empty() ? 0 : std::size_t{matching.back()} + 1);
  if (holder_stamp_.size() < span) holder_stamp_.resize(span, 0);
  ++stamp_;
  for (const NodeId n : matching) {
    // The requester searches the network, not itself.
    if (n != origin) holder_stamp_[n] = stamp_;
  }

  std::uint64_t hits = 0;
  Seconds best_response = std::numeric_limits<Seconds>::infinity();
  auto on_visit = [&](NodeId node, Seconds t, std::uint32_t) {
    if (holder_stamp_[node] != stamp_) return VisitAction::kContinue;
    ++hits;
    // The hit node responds directly to the requester.
    const Seconds back = t + ctx_.hop_latency(node, origin);
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_send(sim::Traffic::kResponse, ctx_.sizes.response));
    ctx_.ledger.deposit(back, sim::Traffic::kResponse, ctx_.sizes.response);
    best_response = std::min(best_response, back);
    // A satisfied walker terminates; flooding ignores the hint.
    return VisitAction::kStopWalker;
  };

  PropagationStats prop;
  switch (params_.scheme) {
    case Scheme::kFlooding:
      prop = flood(ctx_, origin, t0, params_.flood_ttl, ctx_.sizes.query,
                   sim::Traffic::kQuery, on_visit);
      break;
    case Scheme::kRandomWalk:
      prop = random_walk(ctx_, origin, t0, params_.walkers,
                         params_.walker_ttl, ctx_.sizes.query,
                         sim::Traffic::kQuery, on_visit);
      break;
    case Scheme::kGsa:
      prop = gsa(ctx_, origin, t0, params_.gsa_budget, ctx_.sizes.query,
                 sim::Traffic::kQuery, on_visit);
      break;
  }

  metrics::SearchRecord rec;
  rec.issued_at = t0;
  rec.success = hits > 0;
  rec.response_time = rec.success ? best_response - t0 : 0.0;
  rec.cost_bytes = prop.bytes;  // query messages only (§V-A)
  rec.messages = prop.messages;
  // rec.results stays 0 for baselines (they count responding holders via
  // `hits` but the paper's results metric is ASAP's confirmations); the
  // trace span reports the responder count for observability.
  ASAP_OBS_HOOK(ctx_.obs,
                trace_query(t0, origin, rec.success, rec.local_hit,
                            rec.response_time, rec.cost_bytes, rec.messages,
                            static_cast<std::uint32_t>(hits)));
  if (!synthetic_query()) stats_.add(rec);
}

}  // namespace asap::search
