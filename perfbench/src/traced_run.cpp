#include "traced_run.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>

#include "asap/asap_protocol.hpp"
#include "bloom/hashed_query.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"
#include "obs/observer.hpp"
#include "search/baseline.hpp"
#include "search/context.hpp"
#include "sim/audit.hpp"
#include "sim/bandwidth.hpp"
#include "sim/engine.hpp"
#include "sim/liveness.hpp"
#include "trace/live_content.hpp"
#include "trace/streaming_trace_gen.hpp"
#include "trace/trace_gen.hpp"

namespace perfbench {

namespace {

using namespace asap;

constexpr double kMB = 1024.0 * 1024.0;

overlay::Overlay build_overlay(const harness::ExperimentConfig& cfg,
                               std::uint32_t nodes, Rng& rng) {
  switch (cfg.topology) {
    case harness::TopologyKind::kRandom:
      return overlay::Overlay::random(nodes, cfg.random_avg_degree, rng);
    case harness::TopologyKind::kPowerlaw:
      return overlay::Overlay::powerlaw(nodes, cfg.powerlaw_avg_degree,
                                        cfg.powerlaw_alpha, rng);
    case harness::TopologyKind::kCrawled:
      return overlay::Overlay::crawled_like(nodes, cfg.crawled_avg_degree,
                                            rng);
  }
  throw ConfigError("unknown topology kind");
}

/// harness::build_world with one span per stage.
harness::World build_world_traced(const harness::ExperimentConfig& cfg,
                                  SpanRecorder& spans) {
  const auto top = spans.scope("world.build");
  Rng master(cfg.seed);
  Rng phys_rng = master.fork();
  Rng overlay_rng = master.fork();
  Rng content_rng = master.fork();
  Rng trace_rng = master.fork();
  Rng placement_rng = master.fork();

  auto phys = [&] {
    const auto s = spans.scope("net.build");
    return net::TransitStubNetwork::generate(cfg.phys, phys_rng);
  }();
  auto model = [&] {
    const auto s = spans.scope("trace.model_build");
    return trace::ContentModel::build(cfg.content, content_rng);
  }();
  const std::uint32_t slots = model.total_node_slots();
  ASAP_REQUIRE(slots <= phys.num_nodes(),
               "more P2P peers than physical nodes");
  auto base_overlay = [&] {
    const auto s = spans.scope("overlay.build");
    return build_overlay(cfg, model.params().initial_nodes, overlay_rng);
  }();
  auto node_phys = [&] {
    const auto s = spans.scope("world.placement");
    const auto picks = placement_rng.sample_indices(phys.num_nodes(), slots);
    return std::vector<PhysNodeId>(picks.begin(), picks.end());
  }();

  const auto gen_span = spans.scope("trace.gen");
  trace::Trace tr;
  harness::StreamingTraceInfo streaming;
  if (cfg.stream_trace) {
    streaming.enabled = true;
    streaming.rng = trace_rng;
    streaming.mint_base = static_cast<DocId>(model.num_docs());
    streaming.churned.assign(model.params().initial_nodes, 0);
    trace::StreamingTraceGenerator gen(model, cfg.trace, trace_rng);
    trace::TraceEvent ev;
    while (gen.next(ev)) {
      if ((ev.type == trace::TraceEventType::kJoin ||
           ev.type == trace::TraceEventType::kLeave ||
           ev.type == trace::TraceEventType::kRejoin) &&
          ev.node < model.params().initial_nodes) {
        streaming.churned[ev.node] = 1;
      }
    }
    tr.num_queries = gen.num_queries();
    tr.num_changes = gen.num_changes();
    tr.num_joins = gen.num_joins();
    tr.num_leaves = gen.num_leaves();
    tr.num_rejoins = gen.num_rejoins();
    tr.horizon = gen.last_event_time();
  } else {
    trace::TraceGenerator gen(model, cfg.trace, trace_rng);
    tr = gen.generate();
  }
  return harness::World{cfg,
                        std::move(phys),
                        std::move(base_overlay),
                        std::move(node_phys),
                        std::move(model),
                        std::move(tr),
                        std::move(streaming)};
}

/// Resident bytes of the run's state, by component.
struct Memory {
  std::uint64_t cache = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t advertiser = 0;
  /// Distinct payloads reachable from caches that no advertiser holds as
  /// its current or delta-base payload (those are in `advertiser`).
  std::uint64_t payload = 0;
  std::uint64_t state = 0;
  std::uint64_t overlay = 0;
  std::uint64_t live = 0;

  std::uint64_t components() const {
    return cache + advertiser + payload + overlay + live;
  }
};

Memory measure_memory(const search::SearchAlgorithm& algo,
                      const ads::AsapProtocol* asap_algo,
                      std::uint32_t slots, const overlay::Overlay& ov,
                      const trace::LiveContent& live) {
  Memory m;
  m.state = algo.state_bytes();
  m.overlay = ov.memory_bytes();
  m.live = live.memory_bytes();
  if (asap_algo == nullptr) return m;
  std::unordered_set<const ads::AdPayload*> seen;
  for (NodeId n = 0; n < slots; ++n) {
    const auto& adv = asap_algo->advertiser(n);
    m.advertiser += adv.memory_bytes();
    seen.insert(adv.payload().get());
    seen.insert(adv.base_payload().get());
  }
  auto count_payload = [&](const ads::AdPayloadPtr& p) {
    if (p != nullptr && seen.insert(p.get()).second) {
      m.payload += sizeof(ads::AdPayload) + p->filter.memory_bytes() +
                   p->topics.capacity() * sizeof(TopicId);
    }
  };
  for (NodeId n = 0; n < slots; ++n) {
    const auto& cache = asap_algo->cache(n);
    m.cache += cache.memory_bytes();
    m.cache_entries += cache.size();
    for (const auto& e : cache.entries()) {
      count_payload(e.ad);
      count_payload(e.base);
    }
  }
  return m;
}

const char* dispatch_span(trace::TraceEventType type) {
  switch (type) {
    case trace::TraceEventType::kQuery:
      return "search.query";
    case trace::TraceEventType::kAddDoc:
    case trace::TraceEventType::kRemoveDoc:
      return "asap.change";
    default:
      return "asap.churn";
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

TracedResult run_traced(const Workload& w, SpanRecorder& spans) {
  TracedResult out;
  const std::int64_t t_start = spans.now_ns();
  const harness::World world = build_world_traced(w.cfg, spans);
  const auto& cfg = world.cfg;
  const Seconds warmup = cfg.warmup;
  const Seconds horizon = warmup + world.trace.horizon + 30.0;
  const std::uint32_t slots = world.model.total_node_slots();
  out.num_queries = world.trace.num_queries;

  // Per-run state, held so that teardown below can time each release in
  // run_experiment's destruction order.
  std::optional<overlay::Overlay> ov;
  std::optional<trace::LiveContent> live;
  std::optional<trace::ContentIndex> index;
  std::optional<sim::Liveness> liveness;
  std::optional<sim::Engine> engine;
  std::optional<sim::BandwidthLedger> ledger;
  Rng algo_rng(cfg.seed ^ 0x517CC1B727220A95ULL);
  Rng churn_rng(cfg.seed ^ 0x2545F4914F6CDD1DULL);
  std::optional<search::Ctx> ctx;
  obs::RunObserver observer{obs::ObsConfig{}};
  std::unique_ptr<faults::FaultPlan> plan;
  std::unique_ptr<faults::FaultInjector> injector;
  std::unique_ptr<search::SearchAlgorithm> algo;
  ads::AsapProtocol* asap_algo = nullptr;

  const bool faults_on = cfg.faults.any();
  const faults::FaultConfig& fault_cfg = cfg.faults;
  {
    const auto top = spans.scope("run.state");
    {
      const auto s = spans.scope("overlay.copy");
      ov.emplace(world.base_overlay);
    }
    {
      const auto s = spans.scope("trace.live_build");
      live.emplace(world.model);
    }
    {
      const auto s = spans.scope("trace.index_build");
      index.emplace(world.model, *live);
    }
    {
      const auto s = spans.scope("sim.build");
      liveness.emplace(slots, world.model.params().initial_nodes);
      engine.emplace(sim::EngineTuning{});
      ledger.emplace(horizon);
    }
    ctx.emplace(*ov, world.phys, world.node_phys, world.model, *live, *index,
                *engine, *ledger, cfg.sizes, algo_rng);
    engine->set_observer(&observer);
    ledger->set_observer(&observer);
    ctx->obs = &observer;

    if (faults_on) {
      const auto s = spans.scope("faults.plan");
      fault_cfg.validate();
      plan = std::make_unique<faults::FaultPlan>(
          world.streaming.enabled
              ? faults::FaultPlan::build(
                    fault_cfg, cfg.seed, world.model.params().initial_nodes,
                    std::span<const std::uint8_t>(world.streaming.churned),
                    warmup, warmup + world.trace.horizon,
                    world.phys.params().total_stub_domains())
              : faults::FaultPlan::build(
                    fault_cfg, cfg.seed, world.model.params().initial_nodes,
                    world.trace.events, warmup, warmup + world.trace.horizon,
                    world.phys.params().total_stub_domains()));
      injector = std::make_unique<faults::FaultInjector>(
          *plan, world.phys, cfg.seed ^ 0x9E3779B97F4A7C15ULL);
      ctx->faults = injector.get();
    }

    const auto s = spans.scope("algo.build");
    if (harness::is_asap(w.algo)) {
      auto params = harness::default_asap_params(w.algo, cfg.preset);
      if (faults_on) {
        if (fault_cfg.confirm_attempts > 0) {
          params.confirm_max_attempts = fault_cfg.confirm_attempts;
        }
        if (fault_cfg.stale_strikes > 0) {
          params.stale_timeout_strikes = fault_cfg.stale_strikes;
        }
        if (fault_cfg.confirm_backoff > 0.0) {
          params.confirm_retry_backoff = fault_cfg.confirm_backoff;
        }
        if (fault_cfg.trust_enabled) {
          params.trust_enabled = true;
          params.trust_reward = fault_cfg.trust_reward;
          params.trust_strike_decay = fault_cfg.trust_strike_decay;
          params.trust_quarantine_threshold =
              fault_cfg.trust_quarantine_threshold;
          params.trust_quarantine_backoff =
              fault_cfg.trust_quarantine_backoff;
        }
        if (fault_cfg.trust_fill_gate > 0.0) {
          params.trust_fill_gate = fault_cfg.trust_fill_gate;
        }
        if (fault_cfg.strike_per_chain) params.strike_per_chain = true;
        if (fault_cfg.pending_query_cap > 0) {
          params.pending_query_cap = fault_cfg.pending_query_cap;
        }
        if (fault_cfg.ttl_clamp_depth > 0) {
          params.ttl_clamp_depth = fault_cfg.ttl_clamp_depth;
        }
      }
      auto protocol = std::make_unique<ads::AsapProtocol>(*ctx, params);
      asap_algo = protocol.get();
      algo = std::move(protocol);
    } else {
      algo = std::make_unique<search::BaselineSearch>(
          *ctx, harness::default_baseline_params(w.algo, cfg.preset));
    }
    if (faults_on) {
      algo->set_fault_onset(plan->first_fault_time());
      if (plan->storm_queries().empty()) {
        injector->arm(*engine, *ov, *live, *liveness, &observer);
      } else {
        search::SearchAlgorithm* raw = algo.get();
        injector->arm(*engine, *ov, *live, *liveness, &observer,
                      [raw](const faults::FaultPlan::StormQuery& sq) {
                        trace::TraceEvent ev;
                        ev.type = trace::TraceEventType::kQuery;
                        ev.time = sq.at;
                        ev.node = sq.node;
                        ev.terms[0] = sq.term;
                        ev.num_terms = 1;
                        raw->inject_synthetic_query(ev);
                      });
      }
    }
  }

  {
    // Warm-up dissemination runs as engine events; its drain is timed
    // apart from the replay's engine segments.
    const auto top = spans.scope("asap.warmup");
    {
      const auto s = spans.scope("asap.warm_up");
      algo->warm_up(warmup);
    }
    const auto s = spans.scope("sim.engine_warmup");
    engine->run_until(warmup);
  }
  Memory mem_warm;
  {
    const auto top = spans.scope("obs.memory_scan");
    mem_warm = measure_memory(*algo, asap_algo, slots, *ov, *live);
  }

  std::optional<trace::StreamingTraceGenerator> stream;
  if (world.streaming.enabled) {
    const auto top = spans.scope("trace.stream_open");
    stream.emplace(world.model, cfg.trace, world.streaming.rng,
                   world.streaming.mint_base);
  }
  std::size_t event_cursor = 0;
  auto next_event = [&](trace::TraceEvent& ev_out) -> bool {
    if (stream) return stream->next(ev_out);
    if (event_cursor >= world.trace.events.size()) return false;
    ev_out = world.trace.events[event_cursor++];
    return true;
  };

  std::uint64_t pending_max = 0;
  std::uint64_t lookup_candidates = 0;
  std::int32_t query_ordinal = 0;
  bloom::HashedQuery probe;
  std::vector<ads::AdPayloadPtr> candidates;
  trace::TraceEvent ev;
  for (;;) {
    SpanRecorder::Scope event_span(spans, "replay.event");
    bool more = false;
    {
      const auto s = spans.scope("trace.next");
      more = next_event(ev);
    }
    if (!more) break;
    if (ev.type == trace::TraceEventType::kQuery) {
      event_span.set_query(query_ordinal++);
    }
    const Seconds t = ev.time + warmup;
    {
      const auto s = spans.scope("sim.engine");
      engine->run_until(t);
    }
    pending_max = std::max<std::uint64_t>(pending_max, engine->pending());

    switch (ev.type) {
      case trace::TraceEventType::kJoin: {
        const auto s = spans.scope("overlay.churn");
        const NodeId id = ov->attach_new(cfg.join_degree, churn_rng);
        ASAP_CHECK(id == ev.node);
        liveness->set_online(ev.node, true, t);
        observer.trace_churn(t, ev.node, "join");
        break;
      }
      case trace::TraceEventType::kLeave: {
        const auto s = spans.scope("overlay.churn");
        ov->detach(ev.node);
        liveness->set_online(ev.node, false, t);
        observer.trace_churn(t, ev.node, "leave");
        break;
      }
      case trace::TraceEventType::kRejoin: {
        const auto s = spans.scope("overlay.churn");
        ov->reattach(ev.node, cfg.join_degree, churn_rng);
        liveness->set_online(ev.node, true, t);
        observer.trace_churn(t, ev.node, "rejoin");
        break;
      }
      default:
        break;
    }
    {
      const auto s = spans.scope("trace.apply");
      live->apply(ev, world.model);
      index->apply(ev, world.model);
    }

    if (asap_algo != nullptr && ev.type == trace::TraceEventType::kQuery) {
      // Const probe of the origin's ad cache with the query the protocol
      // is about to hash: the Bloom and ad-cache lookup cost on its own.
      const auto s = spans.scope("asap.lookup_probe");
      probe.assign(ev.term_span(), bloom::BloomParams{});
      asap_algo->cache(ev.node).collect_matches(probe, candidates);
      lookup_candidates += candidates.size();
      candidates.clear();
    }

    trace::TraceEvent shifted = ev;
    shifted.time = t;
    {
      const auto s = spans.scope(dispatch_span(ev.type));
      algo->on_trace_event(shifted);
    }
    pending_max = std::max<std::uint64_t>(pending_max, engine->pending());
  }
  {
    const auto top = spans.scope("sim.drain");
    const auto s = spans.scope("sim.engine");
    engine->run_until(horizon);
  }

  const auto measure_start = static_cast<std::uint32_t>(warmup);
  const auto measure_end =
      static_cast<std::uint32_t>(std::ceil(warmup + world.trace.horizon));
  {
    const auto top = spans.scope("metrics.reduce");
    out.search = algo->stats();
    out.digest = sim::combine_digests(engine->digest(), ledger->digest());
    const auto live_series = liveness->live_count_series(horizon);
    const auto cats = harness::load_categories(w.algo);
    out.load = metrics::reduce_load(*ledger, cats, live_series, measure_start,
                                    measure_end);
    const auto breakdown = metrics::category_breakdown(*ledger, cats,
                                                       measure_start,
                                                       measure_end);
    ASAP_CHECK(breakdown.size() <= cats.size());
    observer.finalize(horizon);
  }
  Memory mem_end;
  {
    const auto top = spans.scope("obs.memory_scan");
    mem_end = measure_memory(*algo, asap_algo, slots, *ov, *live);
  }

  // Deterministic counts, read before teardown releases their owners.
  const auto& reg = observer.counters();
  auto deposits = [&](std::span<const sim::Traffic> cats) {
    std::uint64_t n = 0;
    for (const auto c : cats) n += reg.category(c).deposits;
    return n;
  };
  static constexpr std::array kSearchCats = {
      sim::Traffic::kQuery, sim::Traffic::kResponse, sim::Traffic::kConfirm,
      sim::Traffic::kAdsRequest};
  static constexpr std::array kAdCats = {
      sim::Traffic::kFullAd, sim::Traffic::kPatchAd, sim::Traffic::kRefreshAd,
      sim::Traffic::kPackedAd};
  std::uint64_t drops_dup = 0;
  std::uint64_t drops_ttl = 0;
  std::uint64_t drops_offline = 0;
  for (const auto c : kSearchCats) {
    drops_dup += reg.category(c).drops_duplicate;
    drops_ttl += reg.category(c).drops_ttl;
    drops_offline += reg.category(c).drops_offline;
  }
  std::uint64_t all_deposits = 0;
  for (std::size_t c = 0; c < sim::kTrafficCount; ++c) {
    all_deposits += reg.category(static_cast<sim::Traffic>(c)).deposits;
  }
  const std::uint64_t search_messages = deposits(kSearchCats);
  const std::uint64_t ad_messages = deposits(kAdCats);
  const auto& totals = reg.totals();
  const ads::AsapProtocol::Counters ac =
      asap_algo != nullptr ? asap_algo->counters()
                           : ads::AsapProtocol::Counters{};
  const faults::FaultInjector::Report fr =
      injector != nullptr ? injector->report() : faults::FaultInjector::Report{};
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  out.counts = {
      {"search.messages", u(search_messages)},
      {"search.drops_duplicate", u(drops_dup)},
      {"search.drops_ttl", u(drops_ttl)},
      {"search.drops_offline", u(drops_offline)},
      {"search.dup_ratio", ratio(u(drops_dup), u(search_messages))},
      {"sim.engine_events", u(engine->executed())},
      {"sim.engine_pending_max", u(pending_max)},
      {"sim.ledger_deposits", u(all_deposits)},
      {"asap.full_ads", u(ac.full_ads)},
      {"asap.ad_messages", u(ad_messages)},
      {"asap.ads_stored", u(totals.ads_stored)},
      {"asap.ads_evicted", u(totals.ads_evicted)},
      {"asap.ad_store_ratio", ratio(u(totals.ads_stored), u(ad_messages))},
      {"asap.lookup_candidates", u(lookup_candidates)},
      {"asap.local_hit_ratio", out.search.local_hit_rate()},
      {"asap.confirm_requests", u(ac.confirm_requests)},
      {"asap.confirms_positive", u(totals.confirms_positive)},
      {"asap.confirm_hit_ratio",
       ratio(u(totals.confirms_positive), u(totals.confirms_sent))},
      {"asap.ads_requests", u(ac.ads_requests)},
      {"asap.patch_ads", u(ac.patch_ads)},
      {"asap.delta_ads", u(ac.delta_ads)},
      {"asap.refresh_ads", u(ac.refresh_ads)},
      {"asap.ad_rounds", u(ac.ad_rounds)},
      {"asap.packed_frames", u(ac.packed_frames)},
      {"asap.spilled_entries", u(ac.spilled_entries)},
      {"asap.ads_invalidated", u(totals.ads_invalidated)},
      {"asap.confirm_retries", u(ac.confirm_retries)},
      {"asap.confirm_timeouts", u(ac.confirm_timeouts)},
      {"asap.stale_evictions", u(ac.stale_evictions)},
      {"asap.trust_strikes", u(ac.trust_strikes)},
      {"asap.quarantines", u(ac.quarantines)},
      {"asap.queries_shed", u(ac.queries_shed)},
      {"asap.polluted_ads", u(ac.polluted_ads)},
      {"faults.storm_queries", u(fr.storm_queries)},
      {"faults.dead_sends", u(fr.dead_sends)},
      {"faults.link_drops", u(fr.link_drops)},
  };
  const auto mb = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / kMB;
  };
  out.memory = {
      {"asap.cache_mb", mb(mem_end.cache)},
      {"asap.cache_entries", u(mem_end.cache_entries)},
      {"asap.advertiser_mb", mb(mem_end.advertiser)},
      {"asap.payload_mb", mb(mem_end.payload)},
      {"asap.state_mb", mb(mem_end.state)},
      {"overlay.mb", mb(mem_end.overlay)},
      {"trace.live_mb", mb(mem_end.live)},
      {"sim.ledger_mb", mb(std::uint64_t{ledger->buckets()} *
                           sim::kTrafficCount * sizeof(Bytes))},
      {"mem.components_warmup_mb", mb(mem_warm.components())},
      {"mem.components_end_mb", mb(mem_end.components())},
  };

  {
    // run_experiment's locals, released in its destruction order.
    const auto top = spans.scope("harness.teardown");
    stream.reset();
    {
      const auto s = spans.scope("algo.free");
      algo.reset();
    }
    injector.reset();
    plan.reset();
    ctx.reset();
    {
      const auto s = spans.scope("sim.free");
      ledger.reset();
      engine.reset();
      liveness.reset();
    }
    {
      const auto s = spans.scope("trace.index_free");
      index.reset();
    }
    {
      const auto s = spans.scope("trace.live_free");
      live.reset();
    }
    const auto s = spans.scope("overlay.free");
    ov.reset();
  }
  out.wall_s = static_cast<double>(spans.now_ns() - t_start) * 1e-9;
  return out;
}

}  // namespace perfbench
