#include "asap/superpeer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "search/propagation.hpp"

namespace asap::ads {

namespace {
constexpr Seconds kInfTime = std::numeric_limits<Seconds>::infinity();
}

SuperpeerParams SuperpeerParams::small(search::Scheme s) {
  SuperpeerParams p;
  p.scheme = s;
  return p;  // defaults are already sized for the ~2,000-peer preset
}

SuperpeerAsap::SuperpeerAsap(search::Ctx& ctx, SuperpeerParams params)
    : ctx_(ctx),
      params_(params),
      sp_mesh_(overlay::Overlay::edgeless(ctx.model.total_node_slots())) {
  ASAP_REQUIRE(params.superpeer_fraction > 0.0 &&
                   params.superpeer_fraction <= 1.0,
               "superpeer fraction out of (0,1]");
  ASAP_REQUIRE(params.budget_unit_m0 >= 1, "M0 must be positive");
  const auto slots = ctx.model.total_node_slots();
  is_superpeer_.assign(slots, 0);
  proxy_.assign(slots, kInvalidNode);
  advertisers_.reserve(slots);
  caches_.reserve(slots);
  for (NodeId n = 0; n < slots; ++n) {
    advertisers_.emplace_back(n);
    caches_.emplace_back(params.cache_capacity);
  }
  refresh_scheduled_.assign(slots, 0);
  if (params.trust_enabled) {
    for (auto& c : caches_) {
      c.set_trust_params(params.trust_reward, params.trust_strike_decay,
                         params.trust_quarantine_threshold,
                         params.trust_quarantine_backoff);
    }
  }
  if (params.trust_fill_gate > 0.0) {
    for (auto& c : caches_) c.set_fill_gate(params.trust_fill_gate);
  }
  if (overload_enabled()) pending_queries_.resize(slots);
  if (adaptive()) {
    AdSchedulerParams sp;
    sp.round_budget = params.ad_round_budget;
    sp.stable_after = params.ad_stable_after;
    sp.very_stable_after = params.ad_very_stable_after;
    pending_.resize(slots);
    sp_scheds_.assign(slots, AdScheduler(sp));
    round_scheduled_.assign(slots, 0);
  }
  build_hierarchy();
}

std::string SuperpeerAsap::name() const {
  switch (params_.scheme) {
    case search::Scheme::kFlooding:
      return "sp-asap(fld)";
    case search::Scheme::kRandomWalk:
      return "sp-asap(rw)";
    case search::Scheme::kGsa:
      return "sp-asap(gsa)";
  }
  return "sp-asap(?)";
}

void SuperpeerAsap::build_hierarchy() {
  // Promote the top-degree fraction of the initial overlay to superpeers —
  // in deployed systems capable/stable nodes self-select; degree is the
  // observable proxy our simulation has.
  const auto initial = ctx_.model.params().initial_nodes;
  num_superpeers_ = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(
             std::lround(params_.superpeer_fraction * initial)));
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
        if (nb < n && is_superpeer_[nb]) sp_mesh_.add_edge(n, nb);
      }
    } else {
      const auto nbs = ctx_.ov.neighbors(n);
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        if (!is_superpeer_[nbs[i]]) continue;
        for (std::size_t j = i + 1; j < nbs.size(); ++j) {
          if (is_superpeer_[nbs[j]]) sp_mesh_.add_edge(nbs[i], nbs[j]);
        }
      }
    }
  }

  for (NodeId n = 0; n < initial; ++n) proxy_[n] = assign_proxy(n);
}

NodeId SuperpeerAsap::assign_proxy(NodeId n) {
  if (is_superpeer_[n]) return n;
  // Prefer the highest-degree online superpeer neighbor.
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
  // No adjacent superpeer: pick the latency-closest online one (a
  // bootstrap service would hand this out in a real deployment).
  Seconds best_lat = kInfTime;
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

std::uint64_t SuperpeerAsap::delivery_budget(std::size_t topics,
                                             double scale) const {
  const auto t = std::max<std::size_t>(1, topics);
  const double raw = scale * static_cast<double>(t * params_.budget_unit_m0);
  return std::max<std::uint64_t>(
      params_.walkers, static_cast<std::uint64_t>(std::llround(raw)));
}

bool SuperpeerAsap::is_polluter(NodeId n) const {
  return ctx_.faults != nullptr && ctx_.faults->is_polluter(n);
}

AdPayloadPtr SuperpeerAsap::maybe_pollute(NodeId src, AdPayloadPtr payload) {
  if (!is_polluter(src)) return payload;
  // Phantom bits are a pure function of (source, version) — identical to
  // the flat protocol's scheme — so deliveries are deterministic and no
  // shared RNG stream is consumed.
  SplitMix64 sm(0xC6A4A7935BD1E995ULL ^
                (static_cast<std::uint64_t>(src) << 32) ^ payload->version);
  bloom::BloomFilter filter = payload->filter;
  const std::uint32_t bits = filter.params().bits;
  const std::uint32_t stuff = ctx_.faults->plan().config().pollution_bits;
  for (std::uint32_t i = 0; i < stuff && bits > 0; ++i) {
    const auto pos = static_cast<std::uint32_t>(sm.next() % bits);
    if (!filter.bit(pos)) filter.toggle(pos);
  }
  ++counters_.polluted_ads;
  // A new payload, so its fold and topic mask describe the stuffed filter.
  return std::make_shared<const AdPayload>(payload->source, payload->version,
                                           std::move(filter), payload->topics);
}

void SuperpeerAsap::note_readmit(NodeId cacher, NodeId source, Seconds t) {
  ++counters_.readmissions;
  ASAP_OBS_HOOK(ctx_.obs, on_quarantine_exit(cacher));
  ASAP_OBS_HOOK(ctx_.obs, trace_quarantine(t, cacher, source, "exit"));
}

void SuperpeerAsap::note_implausible(NodeId cacher, NodeId source, Seconds t) {
  // A fill-gate demotion is a trust strike earned by the ad itself — no
  // confirm probe was needed. The entry stays cached at zero trust
  // (demote-and-verify); quarantine follows only if it wastes a probe.
  ++counters_.trust_strikes;
  ASAP_OBS_HOOK(ctx_.obs, on_trust_strike(cacher));
  ASAP_OBS_HOOK(ctx_.obs, trace_trust_strike(t, cacher, source, "implausible"));
}

void SuperpeerAsap::publish(NodeId source, AdKind kind, Seconds when,
                            double scale, const AdPayloadPtr& payload,
                            std::span<const std::uint32_t> patch,
                            std::uint32_t base) {
  Bytes msg_size = 0;
  sim::Traffic cat = sim::Traffic::kFullAd;
  switch (kind) {
    case AdKind::kFull:
      msg_size = full_ad_bytes(*payload, ctx_.sizes);
      cat = sim::Traffic::kFullAd;
      ++counters_.full_ads;
      break;
    case AdKind::kPatch:
      msg_size = patch_ad_bytes(patch.size(), payload->topics.size(),
                                ctx_.sizes);
      cat = sim::Traffic::kPatchAd;
      ++counters_.patch_ads;
      break;
    case AdKind::kRefresh:
      msg_size = refresh_ad_bytes(ctx_.sizes);
      cat = sim::Traffic::kRefreshAd;
      ++counters_.refresh_ads;
      break;
    case AdKind::kDelta:
      msg_size = delta_ad_bytes(patch.size(), payload->topics.size(),
                                ctx_.sizes);
      cat = sim::Traffic::kPatchAd;
      ++counters_.delta_ads;
      break;
  }

  // Leaves upload the ad to their proxy first (one hop).
  NodeId entry = source;
  Seconds start = when;
  if (!is_superpeer_[source]) {
    const NodeId proxy = proxy_[source] != kInvalidNode &&
                                 ctx_.online(proxy_[source])
                             ? proxy_[source]
                             : assign_proxy(source);
    proxy_[source] = proxy;
    if (proxy == kInvalidNode) return;  // no live superpeer reachable
    start = when + ctx_.latency(source, proxy);
    ASAP_AUDIT_HOOK(ctx_.auditor, on_send(cat, msg_size));
    ctx_.ledger.deposit(start, cat, msg_size);
    ++counters_.proxy_uploads;
    entry = proxy;
  }

  auto apply_at = [&](NodeId sp, Seconds t) {
    AdCache& cache = caches_[sp];
    switch (kind) {
      case AdKind::kFull: {
        const auto r = cache.put(payload, t, ctx_.rng);
        if (r.stored) ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(sp));
        if (r.evicted) ASAP_OBS_HOOK(ctx_.obs, on_ad_evicted(sp));
        if (r.readmitted) note_readmit(sp, source, t);
        if (r.implausible) note_implausible(sp, source, t);
        break;
      }
      case AdKind::kPatch: {
        const auto outcome = cache.apply_patch(source, base, payload, t);
        if (outcome == UpdateOutcome::kApplied) {
          ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(sp));
        } else if (outcome == UpdateOutcome::kInvalidated) {
          ASAP_OBS_HOOK(ctx_.obs, on_ad_invalidated(sp));
        }
        break;
      }
      case AdKind::kRefresh: {
        const auto outcome = cache.on_refresh(source, payload->version, t);
        if (outcome == UpdateOutcome::kInvalidated) {
          ASAP_OBS_HOOK(ctx_.obs, on_ad_invalidated(sp));
        }
        break;
      }
      case AdKind::kDelta: {
        const auto outcome = cache.apply_delta(source, base, patch, payload, t);
        if (outcome == UpdateOutcome::kApplied) {
          ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(sp));
        } else if (outcome == UpdateOutcome::kInvalidated) {
          ASAP_OBS_HOOK(ctx_.obs, on_ad_invalidated(sp));
        }
        break;
      }
    }
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_cache_occupancy(cache.size(), params_.cache_capacity));
  };
  // The entry superpeer caches unconditionally (it proxies the source).
  apply_at(entry, start);

  // Adaptive mode: the mesh spread waits for the proxy's next ad round.
  if (adaptive()) {
    enqueue_pending(entry, source, kind, payload, patch, base);
    return;
  }

  // Dissemination runs over the superpeer mesh only. Superpeers cache all
  // ads (they serve queries from leaves with arbitrary interests).
  search::GraphScope scope(ctx_, sp_mesh_);
  auto visit = [&](NodeId sp, Seconds t, std::uint32_t) {
    apply_at(sp, t);
    return search::VisitAction::kContinue;
  };
  search::PropagationStats prop;
  switch (params_.scheme) {
    case search::Scheme::kFlooding:
      prop = search::flood(ctx_, entry, start, params_.flood_ttl, msg_size,
                           cat, visit);
      break;
    case search::Scheme::kRandomWalk: {
      const auto budget = delivery_budget(payload->topics.size(), scale);
      const auto walkers = std::max<std::uint64_t>(
          params_.walkers,
          (budget + params_.max_walk_hops - 1) / params_.max_walk_hops);
      prop = search::random_walk(ctx_, entry, start,
                                 static_cast<std::uint32_t>(walkers),
                                 std::max<std::uint64_t>(1, budget / walkers),
                                 msg_size, cat, visit);
      break;
    }
    case search::Scheme::kGsa:
      prop = search::gsa(ctx_, entry, start,
                         delivery_budget(payload->topics.size(), scale),
                         msg_size, cat, visit);
      break;
  }
  ASAP_OBS_HOOK(ctx_.obs, trace_ad(when, source, ad_kind_name(kind),
                                   prop.messages, prop.bytes));
}

Bytes SuperpeerAsap::pending_bytes(const PendingAd& p) const {
  switch (p.kind) {
    case AdKind::kFull:
      return full_ad_bytes(*p.payload, ctx_.sizes);
    case AdKind::kPatch:
      return patch_ad_bytes(p.toggles.size(), p.payload->topics.size(),
                            ctx_.sizes);
    case AdKind::kDelta:
      return delta_ad_bytes(p.toggles.size(), p.payload->topics.size(),
                            ctx_.sizes);
    case AdKind::kRefresh:
      return refresh_ad_bytes(ctx_.sizes);
  }
  return 0;
}

void SuperpeerAsap::enqueue_pending(NodeId sp, NodeId source, AdKind kind,
                                    const AdPayloadPtr& payload,
                                    std::span<const std::uint32_t> patch,
                                    std::uint32_t base) {
  PendingAd& slot = pending_[sp][source];
  switch (kind) {
    case AdKind::kFull:
      slot.kind = AdKind::kFull;
      slot.payload = payload;
      slot.base = 0;
      slot.toggles.clear();
      break;
    case AdKind::kPatch:
    case AdKind::kDelta:
      if (slot.payload == nullptr || slot.kind == AdKind::kRefresh) {
        // First change for this source since the last round: keep the
        // compact delta form as uploaded.
        slot.kind = kind;
        slot.payload = payload;
        slot.base = base;
        slot.toggles.assign(patch.begin(), patch.end());
      } else if (slot.kind == AdKind::kFull) {
        slot.payload = payload;  // pending full absorbs the newer payload
      } else {
        // Two queued changes cannot be chained (the second's base is the
        // state after the first applied, which cachers never saw);
        // promote to a full ad of the latest canonical payload.
        slot.kind = AdKind::kFull;
        slot.payload = payload;
        slot.base = 0;
        slot.toggles.clear();
      }
      break;
    case AdKind::kRefresh:
      if (slot.payload == nullptr) {
        slot.kind = AdKind::kRefresh;
        slot.payload = payload;
      } else if (slot.kind == AdKind::kRefresh) {
        slot.payload = payload;  // newer beacon version
      }
      // A queued change already carries the freshest state; keep it.
      break;
  }
  sp_scheds_[sp].upsert(source, pending_bytes(slot),
                        /*urgent=*/slot.kind != AdKind::kRefresh);
  schedule_round(sp);
}

void SuperpeerAsap::schedule_round(NodeId sp) {
  if (round_scheduled_[sp]) return;
  round_scheduled_[sp] = 1;
  const Seconds delay = params_.ad_round_period * ctx_.rng.uniform(0.5, 1.5);
  ctx_.engine.schedule_in(delay, sp, [this, sp] { run_ad_round(sp); });
}

void SuperpeerAsap::run_ad_round(NodeId sp) {
  round_scheduled_[sp] = 0;
  AdScheduler& sched = sp_scheds_[sp];
  if (sched.empty()) return;  // nothing to rotate; the timer lapses
  if (!ctx_.online(sp)) {
    schedule_round(sp);  // proxy offline; retry next period
    return;
  }
  const Seconds when = ctx_.engine.now();
  std::vector<AdScheduler::Emission> emissions;
  const auto plan = sched.next_round(emissions);
  ++counters_.ad_rounds;
  counters_.spilled_entries += plan.spilled;

  // Materialize the frame and its wire size.
  Bytes msg_size = ctx_.sizes.packed_frame_header;
  bool any_full = false;
  bool any_change = false;
  std::size_t max_topics = 1;
  std::vector<std::pair<NodeId, const PendingAd*>> entries;
  entries.reserve(emissions.size());
  for (const auto& e : emissions) {
    const auto it = pending_[sp].find(e.id);
    ASAP_DCHECK(it != pending_[sp].end());
    if (it == pending_[sp].end()) continue;
    const PendingAd& p = it->second;
    msg_size += ctx_.sizes.packed_entry_overhead + pending_bytes(p);
    any_full = any_full || p.kind == AdKind::kFull;
    any_change = any_change ||
                 p.kind == AdKind::kPatch || p.kind == AdKind::kDelta;
    max_topics = std::max(max_topics, p.payload->topics.size());
    entries.emplace_back(e.id, &p);
  }
  if (!entries.empty()) {
    ++counters_.packed_frames;
    counters_.packed_entries += entries.size();

    auto apply_frame = [&](NodeId v, Seconds t) {
      AdCache& cache = caches_[v];
      for (const auto& [src, p] : entries) {
        switch (p->kind) {
          case AdKind::kFull: {
            const auto r = cache.put(p->payload, t, ctx_.rng);
            if (r.stored) ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(v));
            if (r.evicted) ASAP_OBS_HOOK(ctx_.obs, on_ad_evicted(v));
            if (r.readmitted) note_readmit(v, src, t);
            if (r.implausible) note_implausible(v, src, t);
            break;
          }
          case AdKind::kPatch: {
            const auto outcome =
                cache.apply_patch(src, p->base, p->payload, t);
            if (outcome == UpdateOutcome::kApplied) {
              ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(v));
            } else if (outcome == UpdateOutcome::kInvalidated) {
              ASAP_OBS_HOOK(ctx_.obs, on_ad_invalidated(v));
            }
            break;
          }
          case AdKind::kDelta: {
            const auto outcome =
                cache.apply_delta(src, p->base, p->toggles, p->payload, t);
            if (outcome == UpdateOutcome::kApplied) {
              ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(v));
            } else if (outcome == UpdateOutcome::kInvalidated) {
              ASAP_OBS_HOOK(ctx_.obs, on_ad_invalidated(v));
            }
            break;
          }
          case AdKind::kRefresh: {
            const auto outcome =
                cache.on_refresh(src, p->payload->version, t);
            if (outcome == UpdateOutcome::kInvalidated) {
              ASAP_OBS_HOOK(ctx_.obs, on_ad_invalidated(v));
            }
            break;
          }
        }
      }
      ASAP_AUDIT_HOOK(ctx_.auditor, on_cache_occupancy(
                                        cache.size(), params_.cache_capacity));
    };

    const double scale = any_full     ? params_.join_budget_scale
                         : any_change ? params_.patch_budget_scale
                                      : params_.refresh_budget_scale;
    search::GraphScope scope(ctx_, sp_mesh_);
    auto visit = [&](NodeId v, Seconds t, std::uint32_t) {
      apply_frame(v, t);
      return search::VisitAction::kContinue;
    };
    search::PropagationStats prop;
    switch (params_.scheme) {
      case search::Scheme::kFlooding:
        prop = search::flood(ctx_, sp, when, params_.flood_ttl, msg_size,
                             sim::Traffic::kPackedAd, visit);
        break;
      case search::Scheme::kRandomWalk: {
        const auto budget = delivery_budget(max_topics, scale);
        const auto walkers = std::max<std::uint64_t>(
            params_.walkers,
            (budget + params_.max_walk_hops - 1) / params_.max_walk_hops);
        prop = search::random_walk(
            ctx_, sp, when, static_cast<std::uint32_t>(walkers),
            std::max<std::uint64_t>(1, budget / walkers), msg_size,
            sim::Traffic::kPackedAd, visit);
        break;
      }
      case search::Scheme::kGsa:
        prop = search::gsa(ctx_, sp, when, delivery_budget(max_topics, scale),
                           msg_size, sim::Traffic::kPackedAd, visit);
        break;
    }
    ASAP_OBS_HOOK(ctx_.obs,
                  trace_ad(when, sp, "packed", prop.messages, prop.bytes));
    ASAP_OBS_HOOK(ctx_.obs,
                  trace_ad_round(when, sp,
                                 static_cast<std::uint32_t>(entries.size()),
                                 plan.spilled, prop.bytes));

    // Emitted entries decay to refresh beacons: the scheduler's stride
    // decay then re-advertises stable sources every 2nd / 4th round.
    for (const auto& [src, p] : entries) {
      PendingAd& slot = pending_[sp][src];
      slot.kind = AdKind::kRefresh;
      slot.base = 0;
      slot.toggles.clear();
      sched.upsert(src, refresh_ad_bytes(ctx_.sizes), /*urgent=*/false);
    }
  }
  schedule_round(sp);
}

void SuperpeerAsap::warm_up(Seconds duration) {
  ASAP_REQUIRE(duration > 0.0, "warm-up duration must be positive");
  const auto initial = ctx_.model.params().initial_nodes;
  for (NodeId n = 0; n < initial; ++n) {
    auto& adv = advertisers_[n];
    for (DocId d : ctx_.live.docs(n)) adv.add_document(ctx_.model.doc(d));
    if (!adv.has_content()) continue;
    const Seconds at = ctx_.rng.uniform(0.0, duration * 0.5);
    ctx_.engine.schedule_at(at, n, [this, n] {
      if (!ctx_.online(n)) return;
      auto payload = maybe_pollute(n, advertisers_[n].publish_full());
      publish(n, AdKind::kFull, ctx_.engine.now(), 1.0, payload, {}, 0);
      schedule_refresh(n);
    });
  }
}

void SuperpeerAsap::schedule_refresh(NodeId n) {
  if (refresh_scheduled_[n]) return;
  refresh_scheduled_[n] = 1;
  const Seconds delay = params_.refresh_period * ctx_.rng.uniform(0.5, 1.5);
  ctx_.engine.schedule_in(delay, n, [this, n] { on_refresh_timer(n); });
}

void SuperpeerAsap::on_refresh_timer(NodeId n) {
  refresh_scheduled_[n] = 0;
  if (!ctx_.online(n)) return;
  auto& adv = advertisers_[n];
  if (adv.has_advertised() && adv.has_content()) {
    publish(n, AdKind::kRefresh, ctx_.engine.now(),
            params_.refresh_budget_scale, adv.payload(), {}, 0);
  }
  schedule_refresh(n);
}

void SuperpeerAsap::on_trace_event(const trace::TraceEvent& ev) {
  switch (ev.type) {
    case trace::TraceEventType::kQuery:
      run_query(ev);
      break;
    case trace::TraceEventType::kAddDoc:
    case trace::TraceEventType::kRemoveDoc:
      on_content_change(ev);
      break;
    case trace::TraceEventType::kJoin:
      on_join(ev);
      break;
    case trace::TraceEventType::kRejoin: {
      // Re-pick a proxy (the old one may be gone) and re-announce.
      const NodeId n = ev.node;
      proxy_[n] = assign_proxy(n);
      auto& adv = advertisers_[n];
      if (adv.has_content()) {
        auto payload = maybe_pollute(n, adv.publish_full());
        publish(n, AdKind::kFull, ev.time, params_.join_budget_scale,
                payload, {}, 0);
        schedule_refresh(n);
      }
      break;
    }
    case trace::TraceEventType::kLeave:
      break;
  }
}

void SuperpeerAsap::on_join(const trace::TraceEvent& ev) {
  const NodeId n = ev.node;
  // Joiners enter as leaves; grow the mesh's id space to keep it aligned
  // with the main overlay.
  while (sp_mesh_.num_nodes() < ctx_.ov.num_nodes()) {
    Rng throwaway(0);  // attach with zero edges; rng is never consumed
    sp_mesh_.attach_new(0, throwaway);
  }
  proxy_[n] = assign_proxy(n);
  auto& adv = advertisers_[n];
  for (DocId d : ctx_.live.docs(n)) adv.add_document(ctx_.model.doc(d));
  if (adv.has_content()) {
    auto payload = maybe_pollute(n, adv.publish_full());
    publish(n, AdKind::kFull, ev.time, params_.join_budget_scale, payload,
            {}, 0);
    schedule_refresh(n);
  }
}

void SuperpeerAsap::on_content_change(const trace::TraceEvent& ev) {
  const NodeId n = ev.node;
  auto& adv = advertisers_[n];
  const auto& doc = ctx_.model.doc(ev.doc);
  if (ev.type == trace::TraceEventType::kAddDoc) {
    adv.add_document(doc);
  } else {
    adv.remove_document(doc);
  }
  if (!ctx_.online(n)) return;
  if (!adv.has_advertised()) {
    if (adv.has_content()) {
      auto payload = maybe_pollute(n, adv.publish_full());
      publish(n, AdKind::kFull, ev.time, params_.join_budget_scale, payload,
              {}, 0);
      schedule_refresh(n);
    }
    return;
  }
  auto patch = adv.pending_patch();
  if (patch.empty()) return;
  const std::uint32_t base = adv.version();
  auto payload = adv.publish_full();
  // Polluters only ship full (stuffed) ads: a patch would store the
  // canonical payload at cachers and launder the pollution away.
  if (is_polluter(n)) {
    publish(n, AdKind::kFull, ev.time, params_.join_budget_scale,
            maybe_pollute(n, std::move(payload)), {}, 0);
    return;
  }
  publish(n, AdKind::kPatch, ev.time, params_.patch_budget_scale, payload,
          patch, base);
}

Seconds SuperpeerAsap::confirm_round(
    NodeId requester, NodeId sp, Seconds start,
    std::span<const KeywordId> terms,
    std::span<const AdPayloadPtr> candidates, metrics::SearchRecord& rec,
    Seconds& resolve) {
  Seconds best = kInfTime;
  std::uint32_t sent = 0;
  const bool trust = caches_[sp].trust_enabled();
  // A strike (or quarantine) charged to the *proxy's* cache: the requester
  // reports the outcome back to its proxy, which owns the entry.
  auto strike = [&](NodeId src, Seconds t, const char* kind) {
    if (!trust) return;
    ++counters_.trust_strikes;
    ASAP_OBS_HOOK(ctx_.obs, on_trust_strike(sp));
    ASAP_OBS_HOOK(ctx_.obs, trace_trust_strike(t, sp, src, kind));
    if (caches_[sp].record_strike(src, t)) {
      ++counters_.quarantines;
      ASAP_OBS_HOOK(ctx_.obs, on_quarantine_enter(sp));
      ASAP_OBS_HOOK(ctx_.obs, trace_quarantine(t, sp, src, "enter"));
    }
  };
  for (const auto& ad : candidates) {
    if (sent >= params_.max_confirms) break;
    const NodeId s = ad->source;
    if (s == requester) continue;
    ++sent;
    ++counters_.confirm_requests;
    const Seconds lat = ctx_.latency(requester, s);
    const Seconds t_req = start + lat;
    ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_request());
    ASAP_AUDIT_HOOK(ctx_.auditor, on_send(sim::Traffic::kConfirm,
                                          ctx_.sizes.confirm_request));
    ctx_.ledger.deposit(t_req, sim::Traffic::kConfirm,
                        ctx_.sizes.confirm_request);
    ASAP_OBS_HOOK(ctx_.obs, on_confirm_sent(requester));
    rec.cost_bytes += ctx_.sizes.confirm_request;
    ++rec.messages;
    // Confirm-droppers swallow the request: to the requester this is
    // indistinguishable from an offline source.
    const bool dropped = ctx_.online(s) && ctx_.faults != nullptr &&
                         ctx_.faults->is_confirm_dropper(s);
    if (dropped) ++counters_.dropped_confirms;
    if (!ctx_.online(s) || dropped) {
      ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_timeout());
      ASAP_OBS_HOOK(ctx_.obs, on_confirm_timed_out(requester));
      ASAP_OBS_HOOK(ctx_.obs, trace_confirm(t_req, requester, s, "timeout"));
      resolve = std::max(resolve, start + 2.0 * lat);
      strike(s, start + 2.0 * lat, "timeout");
      continue;  // the proxy's cache entry ages out via refresh gaps
    }
    const Seconds t_reply = t_req + lat;
    ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_reply());
    ASAP_AUDIT_HOOK(ctx_.auditor, on_send(sim::Traffic::kConfirm,
                                          ctx_.sizes.confirm_reply));
    ctx_.ledger.deposit(t_reply, sim::Traffic::kConfirm,
                        ctx_.sizes.confirm_reply);
    rec.cost_bytes += ctx_.sizes.confirm_reply;
    ++rec.messages;
    resolve = std::max(resolve, t_reply);
    bool matches = ctx_.live.node_matches(s, terms, ctx_.model);
    // Stale-advertisers advertise but never serve: every confirm comes
    // back empty-handed no matter what the ground truth says.
    if (matches && ctx_.faults != nullptr &&
        ctx_.faults->is_stale_advertiser(s)) {
      matches = false;
      ++counters_.forced_negatives;
    }
    if (matches) {
      best = std::min(best, t_reply);
      ++rec.results;
      if (trust) caches_[sp].record_reward(s);
      ASAP_OBS_HOOK(ctx_.obs, on_confirm_positive(requester));
      ASAP_OBS_HOOK(ctx_.obs,
                    trace_confirm(t_reply, requester, s, "positive"));
    } else {
      ASAP_OBS_HOOK(ctx_.obs,
                    trace_confirm(t_reply, requester, s, "negative"));
      strike(s, t_reply, "false-positive");
    }
  }
  return best;
}

Seconds SuperpeerAsap::ads_request_phase(
    NodeId sp, Seconds start, const bloom::HashedQuery& query,
    metrics::SearchRecord* rec, std::vector<AdPayloadPtr>& matches_out) {
  matches_out.clear();
  if (params_.ads_request_hops == 0) return start;
  ++counters_.ads_requests;
  Seconds done = start;

  search::GraphScope scope(ctx_, sp_mesh_);
  auto visit = [&](NodeId v, Seconds t, std::uint32_t) {
    caches_[v].collect_for_reply(query, {}, params_.ads_reply_max,
                                 params_.ads_reply_topical_max,
                                 reply_scratch_);
    Bytes reply_bytes = ctx_.sizes.ads_reply_header;
    for (const auto& ad : reply_scratch_) {
      reply_bytes += ctx_.sizes.ads_reply_entry_overhead +
                     full_ad_bytes(*ad, ctx_.sizes);
    }
    const Seconds t_back = t + ctx_.latency(v, sp);
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_send(sim::Traffic::kAdsRequest, reply_bytes));
    ctx_.ledger.deposit(t_back, sim::Traffic::kAdsRequest, reply_bytes);
    if (rec != nullptr) {
      rec->cost_bytes += reply_bytes;
      ++rec->messages;
    }
    done = std::max(done, t_back);
    for (auto& ad : reply_scratch_) {
      const auto r = caches_[sp].put(ad, t_back, ctx_.rng);
      if (r.stored) ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(sp));
      if (r.evicted) ASAP_OBS_HOOK(ctx_.obs, on_ad_evicted(sp));
      if (r.implausible) note_implausible(sp, ad->source, t_back);
      ASAP_AUDIT_HOOK(ctx_.auditor,
                      on_cache_occupancy(caches_[sp].size(),
                                         params_.cache_capacity));
      if (!query.empty() && query.matches(ad->filter)) {
        matches_out.push_back(ad);
      }
    }
    return search::VisitAction::kContinue;
  };
  const auto prop =
      search::flood(ctx_, sp, start, params_.ads_request_hops,
                    ctx_.sizes.ads_request, sim::Traffic::kAdsRequest, visit);
  if (rec != nullptr) {
    rec->cost_bytes += prop.bytes;
    rec->messages += prop.messages;
  }
  std::sort(matches_out.begin(), matches_out.end(),
            [](const AdPayloadPtr& a, const AdPayloadPtr& b) {
              return a->source < b->source;
            });
  matches_out.erase(
      std::unique(matches_out.begin(), matches_out.end(),
                  [](const AdPayloadPtr& a, const AdPayloadPtr& b) {
                    return a->source == b->source;
                  }),
      matches_out.end());
  return done;
}

void SuperpeerAsap::run_query(const trace::TraceEvent& ev) {
  const NodeId r = ev.node;
  const auto terms = ev.term_span();
  metrics::SearchRecord rec;

  // One-shot query hashing, shared by the proxy-side cache scan and the
  // widened superpeer-mesh lookup.
  const bloom::HashedQuery& query = ctx_.hash_query(terms);

  // Route to the proxy (superpeers serve themselves).
  NodeId sp = r;
  Seconds at_proxy = ev.time;
  if (!is_superpeer_[r]) {
    NodeId proxy = proxy_[r];
    if (proxy == kInvalidNode || !ctx_.online(proxy)) {
      proxy = assign_proxy(r);
      proxy_[r] = proxy;
    }
    if (proxy == kInvalidNode) {
      // No live superpeer: the search fails outright.
      ASAP_OBS_HOOK(ctx_.obs, trace_query(ev.time, r, false, false, 0.0,
                                          rec.cost_bytes, rec.messages, 0));
      if (!synthetic_query()) stats_.add(rec);
      return;
    }
    sp = proxy;
    at_proxy = ev.time + ctx_.latency(r, sp);
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_send(sim::Traffic::kConfirm, ctx_.sizes.query));
    ctx_.ledger.deposit(at_proxy, sim::Traffic::kConfirm, ctx_.sizes.query);
    rec.cost_bytes += ctx_.sizes.query;
    ++rec.messages;
    ++counters_.proxy_queries;
  }

  // Overload protection at the proxy — the hierarchy's congestion point.
  // Storm traffic converging on one superpeer is shed (or clamped) there.
  bool clamp_widening = false;
  if (!pending_queries_.empty()) {
    auto& q = pending_queries_[sp];
    std::size_t depth = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i] > at_proxy) q[depth++] = q[i];
    }
    q.resize(depth);
    if (params_.pending_query_cap > 0 &&
        depth >= params_.pending_query_cap) {
      ++counters_.queries_shed;
      ASAP_OBS_HOOK(ctx_.obs, on_query_shed(sp));
      ASAP_OBS_HOOK(ctx_.obs,
                    trace_shed(at_proxy, sp,
                               static_cast<std::uint32_t>(depth)));
      ASAP_OBS_HOOK(ctx_.obs, trace_query(ev.time, r, false, false, 0.0,
                                          rec.cost_bytes, rec.messages, 0));
      if (!synthetic_query()) stats_.add(rec);
      return;
    }
    // Peak counts admitted queries only, so with a cap it never exceeds
    // the cap — shedding is exactly the mechanism that bounds it.
    counters_.peak_pending_depth =
        std::max<std::uint64_t>(counters_.peak_pending_depth, depth + 1);
    if (params_.ttl_clamp_depth > 0 && depth >= params_.ttl_clamp_depth) {
      clamp_widening = true;
      ++counters_.ttl_clamped;
    }
  }

  // Proxy-side lookup; the candidate list travels back to the requester,
  // which confirms with the sources directly.
  caches_[sp].collect_matches(query, scratch_ads_);
  if (caches_[sp].trust_enabled() && scratch_ads_.size() > 1) {
    // Trust-weighted ranking: confirmed-good sources first; stable so the
    // cache's deterministic scan order still breaks ties.
    std::stable_sort(scratch_ads_.begin(), scratch_ads_.end(),
                     [&](const AdPayloadPtr& a, const AdPayloadPtr& b) {
                       return caches_[sp].trust_of(a->source) >
                              caches_[sp].trust_of(b->source);
                     });
  }
  Seconds confirm_start = at_proxy;
  if (sp != r) {
    confirm_start = at_proxy + ctx_.latency(sp, r);
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_send(sim::Traffic::kConfirm, ctx_.sizes.response));
    ctx_.ledger.deposit(confirm_start, sim::Traffic::kConfirm,
                        ctx_.sizes.response);
    rec.cost_bytes += ctx_.sizes.response;
    ++rec.messages;
  }
  Seconds resolve = confirm_start;
  Seconds best =
      confirm_round(r, sp, confirm_start, terms, scratch_ads_, rec, resolve);
  const bool local = best < kInfTime;
  Seconds done_at = resolve;

  if (!local && !clamp_widening) {
    // Proxy widens the lookup among its superpeer neighbors.
    std::vector<AdPayloadPtr> fresh;
    const Seconds done = ads_request_phase(sp, resolve, query, &rec, fresh);
    if (!fresh.empty()) {
      Seconds fetch_start = done;
      if (sp != r) {
        fetch_start = done + ctx_.latency(sp, r);
        ASAP_AUDIT_HOOK(ctx_.auditor,
                        on_send(sim::Traffic::kConfirm, ctx_.sizes.response));
        ctx_.ledger.deposit(fetch_start, sim::Traffic::kConfirm,
                            ctx_.sizes.response);
        rec.cost_bytes += ctx_.sizes.response;
        ++rec.messages;
      }
      Seconds resolve2 = fetch_start;
      best = std::min(best, confirm_round(r, sp, fetch_start, terms, fresh,
                                          rec, resolve2));
      done_at = std::max(done_at, resolve2);
    } else {
      done_at = std::max(done_at, done);
    }
  }
  if (!pending_queries_.empty()) pending_queries_[sp].push_back(done_at);

  rec.success = best < kInfTime;
  rec.local_hit = local;
  rec.response_time = rec.success ? best - ev.time : 0.0;
  ASAP_OBS_HOOK(ctx_.obs,
                trace_query(ev.time, r, rec.success, rec.local_hit,
                            rec.response_time, rec.cost_bytes, rec.messages,
                            rec.results));
  if (!synthetic_query()) stats_.add(rec);
}

std::uint64_t SuperpeerAsap::total_cached_ads() const {
  std::uint64_t total = 0;
  for (NodeId n = 0; n < caches_.size(); ++n) {
    if (is_superpeer_[n]) total += caches_[n].size();
  }
  return total;
}

}  // namespace asap::ads
