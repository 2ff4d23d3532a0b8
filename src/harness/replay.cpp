#include "harness/replay.hpp"

#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/resource.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "search/context.hpp"
#include "sim/engine.hpp"
#include "sim/liveness.hpp"
#include "trace/live_content.hpp"
#include "trace/streaming_trace_gen.hpp"

namespace asap::harness {

const char* algo_name(AlgoKind k) {
  switch (k) {
    case AlgoKind::kFlooding:
      return "flooding";
    case AlgoKind::kRandomWalk:
      return "random-walk";
    case AlgoKind::kGsa:
      return "gsa";
    case AlgoKind::kAsapFld:
      return "asap(fld)";
    case AlgoKind::kAsapRw:
      return "asap(rw)";
    case AlgoKind::kAsapGsa:
      return "asap(gsa)";
    case AlgoKind::kAsapAdaptive:
      return "asap-adaptive";
    case AlgoKind::kAsapDelta:
      return "asap-delta";
  }
  return "?";
}

std::optional<AlgoKind> algo_from_name(std::string_view name) {
  for (const auto k : kExtendedAlgos) {
    if (name == algo_name(k)) return k;
  }
  return std::nullopt;
}

bool is_asap(AlgoKind k) {
  return k == AlgoKind::kAsapFld || k == AlgoKind::kAsapRw ||
         k == AlgoKind::kAsapGsa || k == AlgoKind::kAsapAdaptive ||
         k == AlgoKind::kAsapDelta;
}

std::uint64_t trial_seed_salt(std::uint32_t trial) {
  if (trial == 0) return 0;  // trial 0 == the unsalted canonical run
  return SplitMix64(trial).next();
}

std::vector<sim::Traffic> load_categories(AlgoKind k) {
  const std::span<const sim::Traffic> cats =
      is_asap(k) ? std::span<const sim::Traffic>(
                       ads::AsapProtocol::kLoadCategories)
                 : search::BaselineSearch::kLoadCategories;
  return {cats.begin(), cats.end()};
}

namespace {

/// Applies a fault config's hardening and defense knobs to ASAP. They
/// ride the fault config so a faults-off run keeps the legacy protocol
/// behaviour bit for bit (0 / off = protocol default).
void harden(ads::AsapParams& params, const faults::FaultConfig& f) {
  if (f.confirm_attempts > 0) params.confirm_max_attempts = f.confirm_attempts;
  if (f.stale_strikes > 0) params.stale_timeout_strikes = f.stale_strikes;
  if (f.confirm_backoff > 0.0) params.confirm_retry_backoff = f.confirm_backoff;
  if (f.trust_enabled) {
    params.trust_enabled = true;
    params.trust_reward = f.trust_reward;
    params.trust_strike_decay = f.trust_strike_decay;
    params.trust_quarantine_threshold = f.trust_quarantine_threshold;
    params.trust_quarantine_backoff = f.trust_quarantine_backoff;
  }
  if (f.trust_fill_gate > 0.0) params.trust_fill_gate = f.trust_fill_gate;
  if (f.strike_per_chain) params.strike_per_chain = true;
  if (f.pending_query_cap > 0) params.pending_query_cap = f.pending_query_cap;
  if (f.ttl_clamp_depth > 0) params.ttl_clamp_depth = f.ttl_clamp_depth;
}

search::Scheme scheme_of(AlgoKind k) {
  switch (k) {
    case AlgoKind::kFlooding:
    case AlgoKind::kAsapFld:
      return search::Scheme::kFlooding;
    case AlgoKind::kRandomWalk:
    case AlgoKind::kAsapRw:
    case AlgoKind::kAsapAdaptive:
    case AlgoKind::kAsapDelta:
      return search::Scheme::kRandomWalk;
    case AlgoKind::kGsa:
    case AlgoKind::kAsapGsa:
      return search::Scheme::kGsa;
  }
  return search::Scheme::kFlooding;
}

}  // namespace

search::BaselineParams default_baseline_params(AlgoKind k, Preset preset) {
  ASAP_REQUIRE(!is_asap(k), "not a baseline algorithm");
  return preset == Preset::kPaper
             ? search::BaselineParams::paper(scheme_of(k))
             : search::BaselineParams::small(scheme_of(k));
}

ads::AsapParams default_asap_params(AlgoKind k, Preset preset) {
  ASAP_REQUIRE(is_asap(k), "not an ASAP variant");
  auto params = preset == Preset::kPaper ? ads::AsapParams::paper(scheme_of(k))
                                         : ads::AsapParams::small(scheme_of(k));
  if (k == AlgoKind::kAsapAdaptive) {
    params.ad_mode = ads::AdMode::kAdaptive;
  } else if (k == AlgoKind::kAsapDelta) {
    params.ad_mode = ads::AdMode::kDelta;
  }
  if (params.ad_mode != ads::AdMode::kVanilla) {
    // Adaptive variants ship the stale-readmit hygiene fix by default; the
    // vanilla variants keep the legacy (0 = off) behaviour bit for bit.
    params.stale_readmit_backoff = 30.0;
  }
  return params;
}

RunResult run_experiment(const World& world, AlgoKind kind,
                         const RunOptions& opts) {
  const Preset preset = world.cfg.preset;
  return run_experiment(
      world,
      [&](search::Ctx& ctx) -> std::unique_ptr<search::SearchAlgorithm> {
        if (!is_asap(kind)) {
          return std::make_unique<search::BaselineSearch>(
              ctx, opts.baseline.value_or(
                       default_baseline_params(kind, preset)));
        }
        auto params = opts.asap.value_or(default_asap_params(kind, preset));
        if (ctx.faults != nullptr) harden(params, ctx.faults->plan().config());
        return std::make_unique<ads::AsapProtocol>(ctx, params);
      },
      opts);
}

RunResult run_experiment(const World& world, const ProtocolFactory& make,
                         const RunOptions& opts) {
  const auto wall_start = std::chrono::steady_clock::now();
  const auto& cfg = world.cfg;
  const Seconds warmup = cfg.warmup;
  const Seconds horizon = warmup + world.trace.horizon + 30.0;

  // Per-run mutable state.
  overlay::Overlay ov = world.base_overlay;  // copy: churn mutates it
  trace::LiveContent live(world.model);
  trace::ContentIndex index(world.model, live);
  sim::Liveness liveness(world.model.total_node_slots(),
                         world.model.params().initial_nodes);
  sim::Engine engine;
  sim::BandwidthLedger ledger(horizon);
  // The algorithm's randomness and the world's churn randomness are kept
  // in separate streams so every algorithm sees identical churn.
  Rng algo_rng(cfg.seed ^ 0x517CC1B727220A95ULL);
  Rng churn_rng(cfg.seed ^ 0x2545F4914F6CDD1DULL);

  search::Ctx ctx{ov,     world.phys, world.node_phys, world.model, live,
                  index,  engine,     ledger,          cfg.sizes,   algo_rng};
  ASAP_REQUIRE(opts.message_loss >= 0.0 && opts.message_loss <= 1.0,
               "message loss probability out of [0,1]");
  ctx.message_loss = opts.message_loss;

  std::unique_ptr<sim::SimAuditor> auditor;
  if (opts.audit) {
    auditor = std::make_unique<sim::SimAuditor>();
    engine.set_auditor(auditor.get());
    ledger.set_auditor(auditor.get());
    ctx.auditor = auditor.get();
  }

  // Observability is strictly read-only: the observer sees engine and
  // ledger activity but never schedules events or touches the RNG, so the
  // run digest is identical with or without it.
  if (opts.observer != nullptr) {
    engine.set_observer(opts.observer);
    ledger.set_observer(opts.observer);
    ctx.obs = opts.observer;
  }

  // Fault layer: the plan derives from the world seed alone (same schedule
  // for every algorithm), and so does the injector's own verdict RNG, in a
  // stream of its own. Without an explicit opts.faults and
  // with an all-zero cfg.faults, nothing is built and the run is
  // bit-identical to the historical harness.
  const bool faults_on = opts.faults.has_value() || cfg.faults.any();
  const faults::FaultConfig fault_cfg = opts.faults.value_or(cfg.faults);
  std::unique_ptr<faults::FaultPlan> plan;
  std::unique_ptr<faults::FaultInjector> injector;
  if (faults_on) {
    fault_cfg.validate();
    // Streaming worlds never hold the events vector; the build pre-pass
    // recorded the churn bitmap the planner needs instead.
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
    ctx.faults = injector.get();
  }

  const std::unique_ptr<search::SearchAlgorithm> algo = make(ctx);
  ASAP_REQUIRE(algo != nullptr, "protocol factory returned no protocol");
  if (faults_on) {
    algo->set_fault_onset(plan->first_fault_time());
    if (plan->storm_queries().empty()) {
      injector->arm(engine, ov, live, liveness, opts.observer);
    } else {
      // Flash-crowd queries run the full protocol path (bandwidth, pending
      // slots, shedding) but are excluded from SearchStats — the measured
      // workload stays the legitimate trace.
      search::SearchAlgorithm* raw = algo.get();
      injector->arm(engine, ov, live, liveness, opts.observer,
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

  obs::PhaseProfiler profiler;
  profiler.begin("warm-up", engine.executed());
  algo->warm_up(warmup);
  // Drain warm-up dissemination before the trace replay so the profiler
  // attributes its events to the right phase. This is a no-op for the
  // digest: the first trace event sits at >= warmup, so these events
  // would execute first (in identical heap order) either way.
  engine.run_until(warmup);

  profiler.begin("query-replay", engine.executed());
  // Event source: the materialized vector, or (streaming worlds) a
  // replay-mode generator re-synthesizing the identical stream on demand
  // against the immutable model.
  std::optional<trace::StreamingTraceGenerator> stream;
  if (world.streaming.enabled) {
    stream.emplace(world.model, cfg.trace, world.streaming.rng,
                   world.streaming.mint_base);
  }
  std::size_t event_cursor = 0;
  auto next_event = [&](trace::TraceEvent& out) -> bool {
    if (stream) return stream->next(out);
    if (event_cursor >= world.trace.events.size()) return false;
    out = world.trace.events[event_cursor++];
    return true;
  };
  trace::TraceEvent ev;
  while (next_event(ev)) {
    const Seconds t = ev.time + warmup;
    engine.run_until(t);

    // World updates first, then the algorithm reacts.
    switch (ev.type) {
      case trace::TraceEventType::kJoin: {
        const NodeId id = ov.attach_new(cfg.join_degree, churn_rng);
        ASAP_CHECK(id == ev.node);
        liveness.set_online(ev.node, true, t);
        ASAP_OBS_HOOK(opts.observer, trace_churn(t, ev.node, "join"));
        break;
      }
      case trace::TraceEventType::kLeave:
        ov.detach(ev.node);
        liveness.set_online(ev.node, false, t);
        ASAP_OBS_HOOK(opts.observer, trace_churn(t, ev.node, "leave"));
        break;
      case trace::TraceEventType::kRejoin:
        ov.reattach(ev.node, cfg.join_degree, churn_rng);
        liveness.set_online(ev.node, true, t);
        ASAP_OBS_HOOK(opts.observer, trace_churn(t, ev.node, "rejoin"));
        break;
      default:
        break;
    }
    live.apply(ev, world.model);
    index.apply(ev, world.model);

    trace::TraceEvent shifted = ev;
    shifted.time = t;
    algo->on_trace_event(shifted);
  }
  engine.run_until(horizon);
  profiler.begin("reduce", engine.executed());

  // --- reduce -----------------------------------------------------------
  RunResult res;
  res.algo = algo->name();
  res.search = algo->stats();
  res.measure_start = warmup;
  res.measure_end = warmup + world.trace.horizon;
  res.engine_events = engine.executed();
  res.digest = sim::combine_digests(engine.digest(), ledger.digest());
  if (auditor != nullptr) {
    auditor->finalize(ledger);
    res.audited = true;
    res.audit_violations = auditor->summary().violations;
    res.audit_messages = auditor->violations();
  }

  const auto live_series = liveness.live_count_series(horizon);
  const auto cats = algo->load_categories();
  res.load = metrics::reduce_load(
      ledger, cats, live_series,
      static_cast<std::uint32_t>(res.measure_start),
      static_cast<std::uint32_t>(std::ceil(res.measure_end)));
  res.breakdown = metrics::category_breakdown(
      ledger, cats, static_cast<std::uint32_t>(res.measure_start),
      static_cast<std::uint32_t>(std::ceil(res.measure_end)));
  if (const auto* asap = dynamic_cast<const ads::AsapProtocol*>(algo.get())) {
    res.asap_counters = asap->counters();
    for (const auto& share : res.breakdown) {
      switch (share.category) {
        case sim::Traffic::kFullAd:
        case sim::Traffic::kPatchAd:
        case sim::Traffic::kRefreshAd:
          res.ad_bytes_total += share.bytes;
          break;
        case sim::Traffic::kPackedAd:
          res.ad_bytes_total += share.bytes;
          res.ad_bytes_packed += share.bytes;
          break;
        default:
          break;
      }
    }
  }
  if (injector != nullptr) {
    const auto& rep = injector->report();
    res.faults.enabled = true;
    res.faults.crashes = rep.crashes;
    res.faults.partitions = rep.partitions;
    res.faults.bursts = rep.bursts;
    res.faults.link_drops = rep.link_drops;
    res.faults.burst_drops = rep.burst_drops;
    res.faults.partition_drops = rep.partition_drops;
    res.faults.dead_sends = rep.dead_sends;
    res.faults.first_fault_time = plan->first_fault_time();
    res.faults.polluters = plan->polluters().size();
    res.faults.stale_advertisers = plan->stale_advertisers().size();
    res.faults.confirm_droppers = plan->confirm_droppers().size();
    res.faults.storms = plan->storms().size();
    res.faults.storm_queries = rep.storm_queries;
  }
  if (opts.observer != nullptr) opts.observer->finalize(horizon);
  profiler.end(engine.executed());
  res.profile = profiler.phases();
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  res.events_per_sec = res.wall_seconds > 0.0
                           ? static_cast<double>(res.engine_events) /
                                 res.wall_seconds
                           : 0.0;
  res.state_bytes = algo->state_bytes();
  res.peak_rss_bytes = peak_rss_bytes();
  return res;
}

}  // namespace asap::harness
