#include "asap/asap_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "search/propagation.hpp"

namespace asap::ads {

namespace {
constexpr Seconds kInfTime = std::numeric_limits<Seconds>::infinity();
}

AsapParams AsapParams::paper(search::Scheme s) {
  AsapParams p;
  p.scheme = s;
  return p;
}

AsapParams AsapParams::small(search::Scheme s) {
  AsapParams p;
  p.scheme = s;
  // M0 = 3000 on the ~5x smaller population raises per-delivery coverage to
  // ~95%, which is what gives ASAP its near-local search behaviour. The
  // maintenance deliveries (join/patch/refresh) are scaled down by the same
  // 5x population ratio so their per-node background load — and therefore
  // the ASAP-vs-baseline load ratios of Fig 8/9 — matches the paper-scale
  // configuration (see EXPERIMENTS.md, calibration notes).
  p.budget_unit_m0 = 3'000;
  p.join_budget_scale = 0.01;
  p.patch_budget_scale = 0.05;
  p.refresh_budget_scale = 0.016;
  p.join_reply_max = 16;
  return p;
}

AsapProtocol::AsapProtocol(search::Ctx& ctx, AsapParams params)
    : ctx_(ctx), params_(params) {
  ASAP_REQUIRE(params.budget_unit_m0 >= 1, "M0 must be positive");
  // cache_capacity 0 is allowed: AdCache treats it as caching disabled,
  // which is a useful ablation (ASAP degenerates toward its walk baseline).
  const auto slots = ctx.model.total_node_slots();
  advertisers_.reserve(slots);
  caches_.reserve(slots);
  interest_mask_.reserve(slots);
  for (NodeId n = 0; n < slots; ++n) {
    advertisers_.emplace_back(n);
    caches_.emplace_back(params.cache_capacity);
    interest_mask_.push_back(topic_mask_of(ctx.model.interests(n)));
  }
  refresh_scheduled_.assign(slots, 0);
  if (params_.stale_readmit_backoff > 0.0) {
    for (auto& c : caches_) {
      c.set_readmit_backoff(params_.stale_readmit_backoff);
    }
  }
  if (params_.trust_enabled) {
    for (auto& c : caches_) {
      c.set_trust_params(params_.trust_reward, params_.trust_strike_decay,
                         params_.trust_quarantine_threshold,
                         params_.trust_quarantine_backoff);
    }
  }
  if (params_.strike_per_chain) {
    for (auto& c : caches_) c.set_strike_per_chain(true);
  }
  if (params_.trust_fill_gate > 0.0) {
    for (auto& c : caches_) c.set_fill_gate(params_.trust_fill_gate);
  }
  if (overload_enabled()) pending_.resize(slots);
  if (adaptive()) {
    AdSchedulerParams sp;
    sp.round_budget = params_.ad_round_budget;
    sp.stable_after = params_.ad_stable_after;
    sp.very_stable_after = params_.ad_very_stable_after;
    scheds_.assign(slots, AdScheduler(sp));
  }
}

std::uint64_t AsapProtocol::state_bytes() const {
  std::uint64_t total = advertisers_.capacity() * sizeof(Advertiser) +
                        caches_.capacity() * sizeof(AdCache) +
                        interest_mask_.capacity() * sizeof(TopicMask) +
                        refresh_scheduled_.capacity() +
                        scheds_.capacity() * sizeof(AdScheduler);
  for (const auto& a : advertisers_) total += a.memory_bytes();
  for (const auto& c : caches_) total += c.memory_bytes();
  total += pending_.capacity() * sizeof(std::vector<Seconds>);
  for (const auto& q : pending_) total += q.capacity() * sizeof(Seconds);
  return total;
}

bool AsapProtocol::is_polluter(NodeId n) const {
  return ctx_.faults != nullptr && ctx_.faults->is_polluter(n);
}

AdPayloadPtr AsapProtocol::maybe_pollute(NodeId src, AdPayloadPtr payload) {
  if (!is_polluter(src)) return payload;
  // Phantom bits are a pure function of (source, version): every delivery
  // of this version ships the identical stuffed filter, and no shared RNG
  // stream is consumed, so arming polluters perturbs nothing else.
  SplitMix64 sm(0xC6A4A7935BD1E995ULL ^
                (static_cast<std::uint64_t>(src) << 32) ^ payload->version);
  bloom::BloomFilter filter = payload->filter;
  const std::uint32_t bits = filter.params().bits;
  const std::uint32_t stuff =
      ctx_.faults->plan().config().pollution_bits;
  for (std::uint32_t i = 0; i < stuff && bits > 0; ++i) {
    const auto pos = static_cast<std::uint32_t>(sm.next() % bits);
    if (!filter.bit(pos)) filter.toggle(pos);
  }
  ++counters_.polluted_ads;
  // A new payload, so its fold and topic mask describe the stuffed filter.
  return make_payload(payload->source, payload->version, std::move(filter),
                      payload->topics);
}

void AsapProtocol::note_readmit(NodeId cacher, NodeId source, Seconds t) {
  ++counters_.readmissions;
  ASAP_OBS_HOOK(ctx_.obs, on_quarantine_exit(cacher));
  ASAP_OBS_HOOK(ctx_.obs, trace_quarantine(t, cacher, source, "exit"));
}

void AsapProtocol::note_implausible(NodeId cacher, NodeId source, Seconds t) {
  // A fill-gate demotion is a trust strike earned by the ad itself — no
  // confirm probe was needed. The entry stays cached at zero trust
  // (demote-and-verify); quarantine follows only if it wastes a probe.
  ++counters_.trust_strikes;
  ASAP_OBS_HOOK(ctx_.obs, on_trust_strike(cacher));
  ASAP_OBS_HOOK(ctx_.obs, trace_trust_strike(t, cacher, source, "implausible"));
}

std::string AsapProtocol::name() const {
  const char* mode = "asap";
  switch (params_.ad_mode) {
    case AdMode::kVanilla:
      break;
    case AdMode::kAdaptive:
      mode = "asap-adaptive";
      break;
    case AdMode::kDelta:
      mode = "asap-delta";
      break;
  }
  switch (params_.scheme) {
    case search::Scheme::kFlooding:
      return std::string(mode) + "(fld)";
    case search::Scheme::kRandomWalk:
      return std::string(mode) + "(rw)";
    case search::Scheme::kGsa:
      return std::string(mode) + "(gsa)";
  }
  return std::string(mode) + "(?)";
}

std::uint64_t AsapProtocol::delivery_budget(std::size_t num_topics,
                                            double scale) const {
  const auto topics = std::max<std::size_t>(1, num_topics);
  const double raw =
      scale * static_cast<double>(topics * params_.budget_unit_m0);
  return std::max<std::uint64_t>(params_.walkers,
                                 static_cast<std::uint64_t>(std::llround(raw)));
}

void AsapProtocol::deliver_ad(NodeId src, AdKind kind, Seconds when,
                              double scale, const AdPayloadPtr& payload,
                              std::span<const std::uint32_t> patch_positions,
                              std::uint32_t base_version) {
  ASAP_DCHECK(payload != nullptr);
  Bytes msg_size = 0;
  sim::Traffic cat = sim::Traffic::kFullAd;
  switch (kind) {
    case AdKind::kFull:
      msg_size = full_ad_bytes(*payload, ctx_.sizes);
      cat = sim::Traffic::kFullAd;
      ++counters_.full_ads;
      break;
    case AdKind::kPatch:
      msg_size = patch_ad_bytes(patch_positions.size(),
                                payload->topics.size(), ctx_.sizes);
      cat = sim::Traffic::kPatchAd;
      ++counters_.patch_ads;
      break;
    case AdKind::kRefresh:
      msg_size = refresh_ad_bytes(ctx_.sizes);
      cat = sim::Traffic::kRefreshAd;
      ++counters_.refresh_ads;
      break;
    case AdKind::kDelta:
      msg_size = delta_ad_bytes(patch_positions.size(),
                                payload->topics.size(), ctx_.sizes);
      cat = sim::Traffic::kPatchAd;
      ++counters_.delta_ads;
      break;
  }

  auto visit = [&](NodeId v, Seconds t, std::uint32_t) {
    if (v == src) return search::VisitAction::kContinue;
    // Selective caching: only interested nodes keep the ad (§III-B).
    if (!interested(v, *payload)) return search::VisitAction::kContinue;
    AdCache& cache = caches_[v];
    switch (kind) {
      case AdKind::kFull: {
        const auto r = cache.put(payload, t, ctx_.rng);
        if (r.stored) ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(v));
        if (r.evicted) ASAP_OBS_HOOK(ctx_.obs, on_ad_evicted(v));
        if (r.readmitted) note_readmit(v, src, t);
        if (r.implausible) note_implausible(v, src, t);
        break;
      }
      case AdKind::kPatch: {
        const auto outcome = cache.apply_patch(src, base_version, payload, t);
        if (outcome == UpdateOutcome::kApplied) {
          ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(v));
        } else if (outcome == UpdateOutcome::kInvalidated) {
          ASAP_OBS_HOOK(ctx_.obs, on_ad_invalidated(v));
        }
        break;
      }
      case AdKind::kDelta: {
        const auto outcome =
            cache.apply_delta(src, base_version, patch_positions, payload, t);
        if (outcome == UpdateOutcome::kApplied) {
          ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(v));
        } else if (outcome == UpdateOutcome::kInvalidated) {
          ASAP_OBS_HOOK(ctx_.obs, on_ad_invalidated(v));
        }
        break;
      }
      case AdKind::kRefresh: {
        const auto outcome = cache.on_refresh(src, payload->version, t);
        if (outcome == UpdateOutcome::kInvalidated) {
          ASAP_OBS_HOOK(ctx_.obs, on_ad_invalidated(v));
        }
        const bool had = outcome == UpdateOutcome::kApplied;
        if (!had && params_.refresh_pull) {
          // Extension: pull the full ad straight from the source.
          const Seconds done = t + 2.0 * ctx_.latency(v, src);
          ASAP_AUDIT_HOOK(ctx_.auditor,
                          on_send(sim::Traffic::kFullAd,
                                  ctx_.sizes.confirm_request));
          ctx_.ledger.deposit(t, sim::Traffic::kFullAd,
                              ctx_.sizes.confirm_request);
          const Bytes pull_bytes = full_ad_bytes(*payload, ctx_.sizes);
          ASAP_AUDIT_HOOK(ctx_.auditor,
                          on_send(sim::Traffic::kFullAd, pull_bytes));
          ctx_.ledger.deposit(done, sim::Traffic::kFullAd, pull_bytes);
          const auto r = cache.put(payload, done, ctx_.rng);
          if (r.stored) ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(v));
          if (r.evicted) ASAP_OBS_HOOK(ctx_.obs, on_ad_evicted(v));
          if (r.readmitted) note_readmit(v, src, done);
          if (r.implausible) note_implausible(v, src, done);
          ++counters_.refresh_pulls;
        }
        break;
      }
    }
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_cache_occupancy(cache.size(), params_.cache_capacity));
    return search::VisitAction::kContinue;
  };

  search::PropagationStats prop;
  switch (params_.scheme) {
    case search::Scheme::kFlooding: {
      const auto ttl = kind == AdKind::kRefresh ? params_.refresh_flood_ttl
                                                : params_.flood_ttl;
      prop = search::flood(ctx_, src, when, ttl, msg_size, cat, visit);
      break;
    }
    case search::Scheme::kRandomWalk: {
      const auto budget = delivery_budget(payload->topics.size(), scale);
      // Enough walkers that no single walk exceeds max_walk_hops.
      const auto walkers = std::max<std::uint64_t>(
          params_.walkers,
          (budget + params_.max_walk_hops - 1) / params_.max_walk_hops);
      const auto per_walker = std::max<std::uint64_t>(1, budget / walkers);
      if (params_.interest_bias > 1.0) {
        auto weight = [&](NodeId v) {
          return interested(v, *payload) ? params_.interest_bias : 1.0;
        };
        prop = search::biased_walk(ctx_, src, when,
                                   static_cast<std::uint32_t>(walkers),
                                   per_walker, msg_size, cat, weight, visit);
      } else {
        prop = search::random_walk(ctx_, src, when,
                                   static_cast<std::uint32_t>(walkers),
                                   per_walker, msg_size, cat, visit);
      }
      break;
    }
    case search::Scheme::kGsa: {
      const auto budget = delivery_budget(payload->topics.size(), scale);
      prop = search::gsa(ctx_, src, when, budget, msg_size, cat, visit);
      break;
    }
  }
  ASAP_OBS_HOOK(ctx_.obs, trace_ad(when, src, ad_kind_name(kind),
                                   prop.messages, prop.bytes));
}

void AsapProtocol::warm_up(Seconds duration) {
  ASAP_REQUIRE(duration > 0.0, "warm-up duration must be positive");
  // Every initially-online sharer advertises a full ad at a random point in
  // the first half of the warm-up window; the second half absorbs the walk
  // durations (a budget/walkers-hop walk takes minutes of virtual time), so
  // no warm-up traffic lands inside the measurement window.
  const auto initial = ctx_.model.params().initial_nodes;
  for (NodeId n = 0; n < initial; ++n) {
    auto& adv = advertisers_[n];
    for (DocId d : ctx_.live.docs(n)) adv.add_document(ctx_.model.doc(d));
    if (!adv.has_content()) continue;  // free-riders advertise nothing
    const Seconds at = ctx_.rng.uniform(0.0, duration * 0.5);
    ctx_.engine.schedule_at(at, [this, n] {
      if (!ctx_.online(n)) return;
      auto payload = maybe_pollute(n, advertisers_[n].publish_full());
      deliver_ad(n, AdKind::kFull, ctx_.engine.now(), 1.0, payload, {}, 0);
      schedule_refresh(n);
    });
  }
}

void AsapProtocol::schedule_refresh(NodeId n) {
  if (refresh_scheduled_[n]) return;
  refresh_scheduled_[n] = 1;
  const Seconds delay =
      params_.refresh_period * ctx_.rng.uniform(0.5, 1.5);
  ctx_.engine.schedule_in(delay, [this, n] { on_refresh_timer(n); });
}

void AsapProtocol::on_refresh_timer(NodeId n) {
  refresh_scheduled_[n] = 0;
  if (!ctx_.online(n)) return;  // departed: beaconing stops
  if (adaptive()) {
    // The refresh timer doubles as the ad-round timer: one scheduler
    // round, one packed frame.
    run_ad_round(n);
    schedule_refresh(n);
    return;
  }
  auto& adv = advertisers_[n];
  if (adv.has_advertised() && adv.has_content()) {
    deliver_ad(n, AdKind::kRefresh, ctx_.engine.now(),
               params_.refresh_budget_scale, adv.payload(), {}, 0);
  }
  schedule_refresh(n);
}

void AsapProtocol::run_ad_round(NodeId n) {
  auto& adv = advertisers_[n];
  auto& sched = scheds_[n];
  // Keep the beacon item in sync with the advertising state; the change
  // item was enqueued (urgent) at content-change time.
  if (adv.has_advertised() && adv.has_content()) {
    sched.upsert(kBeaconItem, refresh_ad_bytes(ctx_.sizes), false);
  } else {
    sched.erase(kBeaconItem);
  }
  const auto plan = sched.next_round(emissions_scratch_);
  ++counters_.ad_rounds;
  counters_.spilled_entries += plan.spilled;

  frame_scratch_.clear();
  bool shipped_full = false;
  bool shipped_change = false;
  for (const auto& e : emissions_scratch_) {
    if (e.id == kChangeItem) {
      // All content changes since the last shipped round, coalesced into
      // one patch (or delta) computed now — never at change time, so a
      // burst of changes costs one wire body.
      sched.erase(kChangeItem);  // consumed (re-enqueued by the next change)
      if (params_.ad_mode == AdMode::kDelta) {
        auto delta = adv.pending_delta();
        if (delta.empty()) continue;  // changes cancelled out
        if (is_polluter(n) || delta.size() > params_.patch_to_full_threshold) {
          // Too far from the base: re-base with a full ad. Polluters always
          // re-base — a delta would rebuild the canonical filter at cachers
          // and silently launder the phantom bits away.
          FrameEntry fe;
          fe.kind = AdKind::kFull;
          fe.payload = maybe_pollute(n, adv.publish_full());
          frame_scratch_.push_back(std::move(fe));
          shipped_full = true;
        } else {
          FrameEntry fe;
          fe.kind = AdKind::kDelta;
          fe.base_version = adv.base_version();
          fe.payload = adv.publish_update();  // base stays put
          fe.toggles = std::move(delta);
          frame_scratch_.push_back(std::move(fe));
          shipped_change = true;
        }
      } else {
        auto patch = adv.pending_patch();
        if (patch.empty()) continue;
        const std::uint32_t base = adv.version();
        auto payload = adv.publish_full();
        FrameEntry fe;
        if (is_polluter(n) || patch.size() > params_.patch_to_full_threshold) {
          fe.kind = AdKind::kFull;
          fe.payload = maybe_pollute(n, std::move(payload));
          shipped_full = true;
        } else {
          fe.kind = AdKind::kPatch;
          fe.payload = std::move(payload);
          fe.base_version = base;
          fe.toggles = std::move(patch);
          shipped_change = true;
        }
        frame_scratch_.push_back(std::move(fe));
      }
    } else {  // kBeaconItem
      if (!adv.has_advertised()) continue;
      FrameEntry fe;
      fe.kind = AdKind::kRefresh;
      // Built after any change entry (urgent emissions come first), so
      // the beacon carries the freshly bumped version.
      fe.payload = adv.payload();
      frame_scratch_.push_back(std::move(fe));
    }
  }
  if (frame_scratch_.empty()) return;
  if (shipped_full || shipped_change) {
    // Changed content restarts the beacon's every-round cadence.
    sched.touch_changed(kBeaconItem);
  }
  const double scale = shipped_full     ? params_.join_budget_scale
                       : shipped_change ? params_.patch_budget_scale
                                        : params_.refresh_budget_scale;
  deliver_packed(n, ctx_.engine.now(), scale, frame_scratch_, plan.spilled);
}

void AsapProtocol::deliver_packed(NodeId src, Seconds when, double scale,
                                  std::span<const FrameEntry> entries,
                                  std::uint32_t spilled) {
  ASAP_DCHECK(!entries.empty());
  Bytes msg_size = ctx_.sizes.packed_frame_header;
  bool beacon_only = true;
  for (const FrameEntry& e : entries) {
    msg_size += ctx_.sizes.packed_entry_overhead;
    switch (e.kind) {
      case AdKind::kFull:
        msg_size += full_ad_bytes(*e.payload, ctx_.sizes);
        ++counters_.full_ads;
        beacon_only = false;
        break;
      case AdKind::kPatch:
        msg_size += patch_ad_bytes(e.toggles.size(), e.payload->topics.size(),
                                   ctx_.sizes);
        ++counters_.patch_ads;
        beacon_only = false;
        break;
      case AdKind::kRefresh:
        msg_size += refresh_ad_bytes(ctx_.sizes);
        ++counters_.refresh_ads;
        break;
      case AdKind::kDelta:
        msg_size += delta_ad_bytes(e.toggles.size(), e.payload->topics.size(),
                                   ctx_.sizes);
        ++counters_.delta_ads;
        beacon_only = false;
        break;
    }
  }
  ++counters_.packed_frames;
  counters_.packed_entries += entries.size();

  const sim::Traffic cat = sim::Traffic::kPackedAd;
  auto visit = [&](NodeId v, Seconds t, std::uint32_t) {
    if (v == src) return search::VisitAction::kContinue;
    AdCache& cache = caches_[v];
    for (const FrameEntry& e : entries) {
      // Selective caching per entry, same gate as deliver_ad (§III-B).
      if (!interested(v, *e.payload)) continue;
      switch (e.kind) {
        case AdKind::kFull: {
          const auto r = cache.put(e.payload, t, ctx_.rng);
          if (r.stored) ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(v));
          if (r.evicted) ASAP_OBS_HOOK(ctx_.obs, on_ad_evicted(v));
          if (r.readmitted) note_readmit(v, src, t);
          if (r.implausible) note_implausible(v, src, t);
          break;
        }
        case AdKind::kPatch: {
          const auto outcome =
              cache.apply_patch(src, e.base_version, e.payload, t);
          if (outcome == UpdateOutcome::kApplied) {
            ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(v));
          } else if (outcome == UpdateOutcome::kInvalidated) {
            ASAP_OBS_HOOK(ctx_.obs, on_ad_invalidated(v));
          }
          break;
        }
        case AdKind::kDelta: {
          const auto outcome =
              cache.apply_delta(src, e.base_version, e.toggles, e.payload, t);
          if (outcome == UpdateOutcome::kApplied) {
            ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(v));
          } else if (outcome == UpdateOutcome::kInvalidated) {
            ASAP_OBS_HOOK(ctx_.obs, on_ad_invalidated(v));
          }
          break;
        }
        case AdKind::kRefresh: {
          // refresh_pull is a vanilla-mode ablation; packed frames only
          // touch / invalidate, like the default configuration.
          const auto outcome = cache.on_refresh(src, e.payload->version, t);
          if (outcome == UpdateOutcome::kInvalidated) {
            ASAP_OBS_HOOK(ctx_.obs, on_ad_invalidated(v));
          }
          break;
        }
      }
    }
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_cache_occupancy(cache.size(), params_.cache_capacity));
    return search::VisitAction::kContinue;
  };

  search::PropagationStats prop;
  const AdPayload& lead = *entries.front().payload;
  const auto& topics = lead.topics;
  switch (params_.scheme) {
    case search::Scheme::kFlooding: {
      const auto ttl =
          beacon_only ? params_.refresh_flood_ttl : params_.flood_ttl;
      prop = search::flood(ctx_, src, when, ttl, msg_size, cat, visit);
      break;
    }
    case search::Scheme::kRandomWalk: {
      const auto budget = delivery_budget(topics.size(), scale);
      const auto walkers = std::max<std::uint64_t>(
          params_.walkers,
          (budget + params_.max_walk_hops - 1) / params_.max_walk_hops);
      const auto per_walker = std::max<std::uint64_t>(1, budget / walkers);
      if (params_.interest_bias > 1.0) {
        auto weight = [&](NodeId v) {
          return interested(v, lead) ? params_.interest_bias : 1.0;
        };
        prop = search::biased_walk(ctx_, src, when,
                                   static_cast<std::uint32_t>(walkers),
                                   per_walker, msg_size, cat, weight, visit);
      } else {
        prop = search::random_walk(ctx_, src, when,
                                   static_cast<std::uint32_t>(walkers),
                                   per_walker, msg_size, cat, visit);
      }
      break;
    }
    case search::Scheme::kGsa: {
      const auto budget = delivery_budget(topics.size(), scale);
      prop = search::gsa(ctx_, src, when, budget, msg_size, cat, visit);
      break;
    }
  }
  ASAP_OBS_HOOK(ctx_.obs,
                trace_ad(when, src, "packed", prop.messages, prop.bytes));
  ASAP_OBS_HOOK(ctx_.obs,
                trace_ad_round(when, src,
                               static_cast<std::uint32_t>(entries.size()),
                               spilled, prop.bytes));
}

void AsapProtocol::on_trace_event(const trace::TraceEvent& ev) {
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
    case trace::TraceEventType::kRejoin:
      on_rejoin(ev);
      break;
    case trace::TraceEventType::kLeave:
      break;  // cached state persists; timers notice the departure lazily
  }
}

void AsapProtocol::on_rejoin(const trace::TraceEvent& ev) {
  const NodeId n = ev.node;
  auto& adv = advertisers_[n];
  // The node kept its content across the offline period; its remote
  // cachers may hold stale versions, so it re-announces with a fresh full
  // ad. Its own cache "could be mostly out of date" (§III-C), so it runs
  // the same ads-request flow a brand-new node uses.
  if (adv.has_content()) {
    if (adaptive() && adv.has_advertised() && !adv.dirty()) {
      // Adaptive rejoin shortcut: nothing changed while away, so every
      // remote cacher still holds the *current* version — an urgent
      // refresh beacon in the next packed round re-validates them for a
      // few dozen bytes. Vanilla's full re-announcement at join breadth
      // is the dominant advertisement cost under churn, and for an
      // unchanged filter it carries zero new information.
      scheds_[n].upsert(kBeaconItem, refresh_ad_bytes(ctx_.sizes),
                        /*urgent=*/true);
      schedule_refresh(n);
    } else {
      auto payload = maybe_pollute(n, adv.publish_full());
      deliver_ad(n, AdKind::kFull, ev.time, params_.join_budget_scale,
                 payload, {}, 0);
      schedule_refresh(n);
    }
  }
  std::vector<AdPayloadPtr> unused;
  ads_request_phase(n, ev.time, ctx_.hash_query({}), nullptr, {}, unused);
}

void AsapProtocol::on_join(const trace::TraceEvent& ev) {
  const NodeId n = ev.node;
  ASAP_CHECK(n < advertisers_.size());
  auto& adv = advertisers_[n];
  for (DocId d : ctx_.live.docs(n)) adv.add_document(ctx_.model.doc(d));
  if (adv.has_content()) {
    auto payload = maybe_pollute(n, adv.publish_full());
    deliver_ad(n, AdKind::kFull, ev.time, params_.join_budget_scale, payload,
               {}, 0);
    schedule_refresh(n);
  }
  // Warm the joiner's cache with topical ads from its new neighbors — the
  // same ads-request flow a failed search uses (paper §III-C).
  std::vector<AdPayloadPtr> unused;
  ads_request_phase(n, ev.time, ctx_.hash_query({}), nullptr, {}, unused);
}

void AsapProtocol::on_content_change(const trace::TraceEvent& ev) {
  const NodeId n = ev.node;
  auto& adv = advertisers_[n];
  const auto& doc = ctx_.model.doc(ev.doc);
  if (ev.type == trace::TraceEventType::kAddDoc) {
    adv.add_document(doc);
  } else {
    adv.remove_document(doc, ctx_.live.docs(n), ctx_.model.corpus());
  }
  if (!ctx_.online(n)) return;

  if (!adv.has_advertised()) {
    // First-time sharer (e.g. a free-rider that started sharing).
    if (adv.has_content()) {
      auto payload = maybe_pollute(n, adv.publish_full());
      deliver_ad(n, AdKind::kFull, ev.time, params_.join_budget_scale,
                 payload, {}, 0);
      schedule_refresh(n);
    }
    return;
  }

  if (adaptive()) {
    // Changes wait for the next ad round: the scheduler's urgent change
    // item coalesces everything that happens before the round fires, and
    // the round ships one budget-packed frame instead of one walk per
    // change event.
    auto& sched = scheds_[n];
    const auto pending = params_.ad_mode == AdMode::kDelta
                             ? adv.pending_delta()
                             : adv.pending_patch();
    if (pending.empty()) {
      sched.erase(kChangeItem);  // the changes cancelled out
      return;
    }
    const Bytes est =
        params_.ad_mode == AdMode::kDelta
            ? delta_ad_bytes(pending.size(), adv.payload()->topics.size(),
                             ctx_.sizes)
            : patch_ad_bytes(pending.size(), adv.payload()->topics.size(),
                             ctx_.sizes);
    sched.upsert(kChangeItem, est, /*urgent=*/true);
    schedule_refresh(n);  // no-op if the round timer is already pending
    return;
  }

  auto patch = adv.pending_patch();
  if (patch.empty()) return;  // shared keywords absorbed the change
  const std::uint32_t base = adv.version();
  auto payload = adv.publish_full();  // canonical payload for the new version
  // Polluters only ship full (stuffed) ads: a patch stores the *canonical*
  // payload at cachers, which would silently launder the pollution away.
  if (is_polluter(n) || patch.size() > params_.patch_to_full_threshold) {
    deliver_ad(n, AdKind::kFull, ev.time, params_.join_budget_scale,
               maybe_pollute(n, std::move(payload)), {}, 0);
  } else {
    deliver_ad(n, AdKind::kPatch, ev.time, params_.patch_budget_scale,
               payload, patch, base);
  }
}

Seconds AsapProtocol::confirm_round(NodeId p, Seconds start,
                                    std::span<const KeywordId> terms,
                                    std::span<const AdPayloadPtr> candidates,
                                    metrics::SearchRecord& rec,
                                    Seconds& resolve,
                                    std::vector<NodeId>& dead_sources) {
  Seconds best = kInfTime;
  std::uint32_t sent = 0;
  const std::uint32_t max_attempts =
      std::max<std::uint32_t>(1, params_.confirm_max_attempts);
  Bytes retry_budget_left = params_.confirm_retry_budget;
  for (const auto& ad : candidates) {
    if (sent >= params_.max_confirms) break;
    const NodeId s = ad->source;
    if (s == p) continue;
    ++sent;
    // Byzantine roles of the confirm target, resolved once per candidate
    // (deterministic bitmaps — no draws).
    const bool dropper =
        ctx_.faults != nullptr && ctx_.faults->is_confirm_dropper(s);
    const bool never_serves =
        ctx_.faults != nullptr && ctx_.faults->is_stale_advertiser(s);
    bool replied = false;
    Seconds t_attempt = start;
    Seconds t_deadline = start;
    for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
      if (attempt > 1) {
        // Retries share a per-round byte budget so a fully-lossy network
        // still terminates with bounded cost.
        if (params_.confirm_retry_budget != 0) {
          if (retry_budget_left < ctx_.sizes.confirm_request) break;
          retry_budget_left -= ctx_.sizes.confirm_request;
        }
        ++counters_.confirm_retries;
        counters_.retry_bytes += ctx_.sizes.confirm_request;
        ASAP_OBS_HOOK(ctx_.obs, on_confirm_retry(p));
        ASAP_OBS_HOOK(ctx_.obs, trace_retry(t_attempt, p, s, attempt));
      }
      ++counters_.confirm_requests;
      const Seconds lat = ctx_.hop_latency(p, s);
      const Seconds t_req = t_attempt + lat;
      ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_request());
      ASAP_AUDIT_HOOK(ctx_.auditor, on_send(sim::Traffic::kConfirm,
                                            ctx_.sizes.confirm_request));
      ctx_.ledger.deposit(t_req, sim::Traffic::kConfirm,
                          ctx_.sizes.confirm_request);
      ASAP_OBS_HOOK(ctx_.obs, on_confirm_sent(p));
      rec.cost_bytes += ctx_.sizes.confirm_request;
      ++rec.messages;
      const bool alive = ctx_.online(s);
      bool request_lost = alive && ctx_.direct_lost(p, s, t_req);
      if (alive && !request_lost && dropper) {
        // Confirm-dropper: the request arrives and is silently discarded —
        // the requester observes a timeout; no reply bytes are ever paid.
        request_lost = true;
        ++counters_.dropped_confirms;
      }
      if (alive && !request_lost) {
        const Seconds t_reply = t_req + lat;
        ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_reply());
        ASAP_AUDIT_HOOK(ctx_.auditor, on_send(sim::Traffic::kConfirm,
                                              ctx_.sizes.confirm_reply));
        ctx_.ledger.deposit(t_reply, sim::Traffic::kConfirm,
                            ctx_.sizes.confirm_reply);
        rec.cost_bytes += ctx_.sizes.confirm_reply;
        ++rec.messages;
        if (!ctx_.direct_lost(s, p, t_reply)) {
          replied = true;
          resolve = std::max(resolve, t_reply);
          caches_[p].reset_timeouts(s);
          bool matches = ctx_.live.node_matches(s, terms, ctx_.model);
          if (matches && never_serves) {
            // Stale-advertiser: replies, but always refuses to serve.
            matches = false;
            ++counters_.forced_negatives;
          }
          if (matches) {
            best = std::min(best, t_reply);
            caches_[p].touch(s, t_reply);
            ++rec.results;
            caches_[p].record_reward(s);
            ASAP_OBS_HOOK(ctx_.obs, on_confirm_positive(p));
            ASAP_OBS_HOOK(ctx_.obs, trace_confirm(t_reply, p, s, "positive"));
          } else {
            ASAP_OBS_HOOK(ctx_.obs, trace_confirm(t_reply, p, s, "negative"));
            if (caches_[p].trust_enabled()) {
              // With trust on, a negative confirm is a false-positive
              // strike: the ad claimed content the source will not serve.
              ++counters_.trust_strikes;
              ASAP_OBS_HOOK(ctx_.obs, on_trust_strike(p));
              ASAP_OBS_HOOK(ctx_.obs, trace_trust_strike(t_reply, p, s,
                                                         "false-positive"));
              if (caches_[p].record_strike(s, t_reply)) {
                ++counters_.quarantines;
                ASAP_OBS_HOOK(ctx_.obs, on_quarantine_enter(p));
                ASAP_OBS_HOOK(ctx_.obs,
                              trace_quarantine(t_reply, p, s, "enter"));
              }
            }
          }
          // Without trust scoring, a negative confirmation (cross-document
          // or Bloom false positive) keeps the entry: the ad honestly
          // summarizes the source's content.
          break;
        }
        // The reply was produced and paid for but lost in transit; the
        // requester can only observe a timeout below.
      } else {
        // Connection failure (dead source) or a lost request: the
        // requester's view of this request is a timeout.
        ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_timeout());
      }
      ++counters_.confirm_timeouts;
      ASAP_OBS_HOOK(ctx_.obs, on_confirm_timed_out(p));
      ASAP_OBS_HOOK(ctx_.obs, trace_confirm(t_req, p, s, "timeout"));
      t_deadline = t_attempt + 2.0 * lat;  // the requester waits ~1 RTT
      resolve = std::max(resolve, t_deadline);
      // Exponential backoff before the next attempt (if any).
      t_attempt = t_deadline + params_.confirm_retry_backoff *
                                  static_cast<double>(1u << (attempt - 1));
    }
    if (!replied) {
      // All attempts timed out: one more strike against the cached ad;
      // after stale_timeout_strikes consecutive strikes the entry goes
      // (legacy default 1: first timeout evicts). The chain-aware overload
      // collapses overlapping chains to one strike when the guard is on.
      const std::uint32_t needed =
          std::max<std::uint32_t>(1, params_.stale_timeout_strikes);
      const std::uint32_t strikes =
          caches_[p].record_timeout(s, start, t_deadline);
      bool quarantined = false;
      if (caches_[p].trust_enabled()) {
        // A timed-out chain also damages trust, so persistent silence
        // (stale advertisers, droppers) eventually quarantines the source.
        ++counters_.trust_strikes;
        ASAP_OBS_HOOK(ctx_.obs, on_trust_strike(p));
        ASAP_OBS_HOOK(ctx_.obs, trace_trust_strike(t_deadline, p, s,
                                                   "timeout"));
        if (caches_[p].record_strike(s, t_deadline)) {
          ++counters_.quarantines;
          ASAP_OBS_HOOK(ctx_.obs, on_quarantine_enter(p));
          ASAP_OBS_HOOK(ctx_.obs, trace_quarantine(t_deadline, p, s, "enter"));
          quarantined = true;
        }
      }
      // erase_stale (not erase): with a configured re-admission backoff the
      // evicted source's ads are dropped for a while, so an in-flight
      // delivery cannot re-admit the just-evicted stale ad immediately.
      if (!quarantined && strikes >= needed &&
          caches_[p].erase_stale(s, t_deadline)) {
        ++counters_.stale_evictions;
        ASAP_OBS_HOOK(ctx_.obs, on_stale_evicted(p));
        ASAP_OBS_HOOK(ctx_.obs, trace_stale_evict(t_deadline, p, s));
        repair_pending_since_ = std::min(repair_pending_since_, t_deadline);
      }
      dead_sources.push_back(s);
    }
  }
  return best;
}

Seconds AsapProtocol::ads_request_phase(
    NodeId p, Seconds start, const bloom::HashedQuery& query,
    metrics::SearchRecord* rec, std::span<const NodeId> skip_sources,
    std::vector<AdPayloadPtr>& matches_out) {
  matches_out.clear();
  last_request_stored_ = 0;
  if (params_.ads_request_hops == 0) return start;
  ++counters_.ads_requests;
  Seconds done = start;
  const auto& interests = ctx_.model.interests(p);

  const std::uint32_t total_cap =
      query.empty() ? params_.join_reply_max : params_.ads_reply_max;
  const std::uint32_t topical_cap =
      query.empty() ? params_.join_reply_max : params_.ads_reply_topical_max;
  auto visit = [&](NodeId v, Seconds t, std::uint32_t) {
    caches_[v].collect_for_reply(query, interests, total_cap, topical_cap,
                                 reply_scratch_);
    Bytes reply_bytes = ctx_.sizes.ads_reply_header;
    for (const auto& ad : reply_scratch_) {
      reply_bytes +=
          ctx_.sizes.ads_reply_entry_overhead + full_ad_bytes(*ad, ctx_.sizes);
    }
    const Seconds t_back = t + ctx_.latency(v, p);
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_send(sim::Traffic::kAdsRequest, reply_bytes));
    ctx_.ledger.deposit(t_back, sim::Traffic::kAdsRequest, reply_bytes);
    if (rec != nullptr) {
      rec->cost_bytes += reply_bytes;
      ++rec->messages;
    }
    done = std::max(done, t_back);
    for (auto& ad : reply_scratch_) {
      if (ad->source == p) continue;
      if (std::find(skip_sources.begin(), skip_sources.end(), ad->source) !=
          skip_sources.end()) {
        continue;  // the requester just saw this source dead
      }
      const auto r = caches_[p].put(ad, t_back, ctx_.rng);
      if (r.stored) {
        ++last_request_stored_;
        ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(p));
      }
      if (r.evicted) ASAP_OBS_HOOK(ctx_.obs, on_ad_evicted(p));
      if (r.readmitted) note_readmit(p, ad->source, t_back);
      if (r.implausible) note_implausible(p, ad->source, t_back);
      ASAP_AUDIT_HOOK(ctx_.auditor,
                      on_cache_occupancy(caches_[p].size(),
                                         params_.cache_capacity));
      if (!query.empty() && query.matches(ad->filter)) {
        matches_out.push_back(ad);
      }
    }
    return search::VisitAction::kContinue;
  };

  const auto prop =
      search::flood(ctx_, p, start, params_.ads_request_hops,
                    ctx_.sizes.ads_request, sim::Traffic::kAdsRequest, visit);
  if (rec != nullptr) {
    rec->cost_bytes += prop.bytes;
    rec->messages += prop.messages;
  }

  // Deduplicate by source (two neighbors may return the same ad).
  std::sort(matches_out.begin(), matches_out.end(),
            [](const AdPayloadPtr& a, const AdPayloadPtr& b) {
              if (a->source != b->source) return a->source < b->source;
              return a->version > b->version;
            });
  matches_out.erase(std::unique(matches_out.begin(), matches_out.end(),
                                [](const AdPayloadPtr& a,
                                   const AdPayloadPtr& b) {
                                  return a->source == b->source;
                                }),
                    matches_out.end());
  return done;
}

void AsapProtocol::run_query(const trace::TraceEvent& ev) {
  const NodeId p = ev.node;
  const Seconds t0 = ev.time;
  // A crash-stop node issues nothing: the trace's query never happens, for
  // any algorithm (the fault plan is world-seeded, so all algorithms skip
  // the same queries and success rates stay comparable).
  if (ctx_.faults != nullptr && ctx_.faults->crashed(p, t0)) return;
  const auto terms = ev.term_span();
  metrics::SearchRecord rec;
  rec.issued_at = t0;
  repair_pending_since_ = kInfTime;

  // Overload protection: bounded per-origin pending-query queue with
  // deterministic shedding, plus graceful degradation (TTL clamp-down)
  // under pressure. pending_ is empty unless a cap/clamp is configured.
  bool clamp_ttl = false;
  if (!pending_.empty()) {
    auto& inflight = pending_[p];
    std::erase_if(inflight, [t0](Seconds end) { return end <= t0; });
    const auto depth = static_cast<std::uint32_t>(inflight.size());
    if (params_.pending_query_cap > 0 &&
        depth >= params_.pending_query_cap) {
      // Shed: the query fails immediately at zero protocol cost. A shed
      // legitimate query counts as a failed search; synthetic storm
      // queries are shed silently.
      ++counters_.queries_shed;
      ASAP_OBS_HOOK(ctx_.obs, on_query_shed(p));
      ASAP_OBS_HOOK(ctx_.obs, trace_shed(t0, p, depth));
      if (!synthetic_query()) stats_.add(rec);
      return;
    }
    // Peak counts admitted queries only, so with a cap it never exceeds
    // the cap — shedding is exactly the mechanism that bounds it.
    counters_.peak_pending_depth = std::max<std::uint64_t>(
        counters_.peak_pending_depth, std::uint64_t{depth} + 1);
    clamp_ttl =
        params_.ttl_clamp_depth > 0 && depth >= params_.ttl_clamp_depth;
    if (clamp_ttl) ++counters_.ttl_clamped;
  }

  // Hash the query terms exactly once; every cache scan below — at the
  // querying node and at every node its ads request visits — reuses the
  // precomputed probe positions.
  const bloom::HashedQuery& query = ctx_.hash_query(terms);

  // Phase 1: local ads-cache lookup + confirmations (paper Table I).
  caches_[p].collect_matches(query, scratch_ads_);
  if (caches_[p].trust_enabled() && scratch_ads_.size() > 1) {
    // Trust-weighted ranking: confirm the most trustworthy sources first,
    // so max_confirms budget is not burned on known polluters. stable_sort
    // keeps the deterministic cache-scan order for equal trust.
    std::stable_sort(scratch_ads_.begin(), scratch_ads_.end(),
                     [&](const AdPayloadPtr& a, const AdPayloadPtr& b) {
                       return caches_[p].trust_of(a->source) >
                              caches_[p].trust_of(b->source);
                     });
  }
  Seconds resolve = t0;
  std::vector<NodeId> dead;
  Seconds best =
      confirm_round(p, t0, terms, scratch_ads_, rec, resolve, dead);
  const bool local_success = best < kInfTime;
  Seconds done = resolve;

  // Phase 2: if no match was found *or more responses are needed* (paper
  // Table I), request ads from neighbors within h hops, merge, and retry
  // the confirmation round once. Under storm pressure the clamp suppresses
  // this widening entirely (graceful degradation).
  if ((!local_success || rec.results < params_.results_needed) &&
      !clamp_ttl) {
    std::vector<AdPayloadPtr> fresh;
    const Seconds phase_done =
        ads_request_phase(p, resolve, query, &rec, dead, fresh);
    done = std::max(done, phase_done);
    if (repair_pending_since_ < kInfTime && last_request_stored_ > 0) {
      // The refetch restored cache entries after a stale eviction earlier
      // in this query: a completed repair.
      ++counters_.repair_refetches;
      counters_.repair_seconds_sum += phase_done - repair_pending_since_;
      repair_pending_since_ = kInfTime;
    }
    // Skip sources already confirmed (positively or negatively) in the
    // local round — their answer is known.
    std::erase_if(fresh, [&](const AdPayloadPtr& ad) {
      for (const auto& tried : scratch_ads_) {
        if (tried->source == ad->source) return true;
      }
      return false;
    });
    if (!fresh.empty()) {
      if (caches_[p].trust_enabled() && fresh.size() > 1) {
        // Same trust-weighted ranking as phase 1: the ads-request merge
        // just put these entries into our cache, so sources the fill gate
        // demoted (or confirms struck) sort behind trusted ones.
        std::stable_sort(fresh.begin(), fresh.end(),
                         [&](const AdPayloadPtr& a, const AdPayloadPtr& b) {
                           return caches_[p].trust_of(a->source) >
                                  caches_[p].trust_of(b->source);
                         });
      }
      Seconds resolve2 = phase_done;
      best = std::min(best, confirm_round(p, phase_done, terms, fresh, rec,
                                          resolve2, dead));
      done = std::max(done, resolve2);
    }
  }

  if (!pending_.empty()) pending_[p].push_back(done);

  rec.success = best < kInfTime;
  rec.local_hit = local_success;
  rec.response_time = rec.success ? best - t0 : 0.0;
  ASAP_OBS_HOOK(ctx_.obs,
                trace_query(t0, p, rec.success, rec.local_hit,
                            rec.response_time, rec.cost_bytes, rec.messages,
                            rec.results));
  if (!synthetic_query()) stats_.add(rec);
}

}  // namespace asap::ads
