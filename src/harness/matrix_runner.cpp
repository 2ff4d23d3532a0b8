#include "harness/matrix_runner.hpp"

#include <chrono>
#include <iostream>
#include <memory>
#include <mutex>
#include <ostream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "sim/audit.hpp"

namespace asap::harness {

std::vector<std::pair<std::string, double>> headline_metrics(
    const RunResult& r) {
  const auto& s = r.search;
  // response_percentile is defined (0.0) for runs with zero successes.
  const double p50 = s.response_percentile(0.50);
  const double p95 = s.response_percentile(0.95);
  std::vector<std::pair<std::string, double>> out{
      {"success_rate", s.success_rate()},
      {"avg_response_s", s.avg_response_time()},
      {"p50_response_s", p50},
      {"p95_response_s", p95},
      {"avg_cost_bytes", s.avg_cost_bytes()},
      {"avg_results", s.avg_results()},
      {"local_hit_rate", s.local_hit_rate()},
      {"load_mean_Bps", r.load.mean_bytes_per_node_per_sec},
      {"load_stddev_Bps", r.load.stddev_bytes_per_node_per_sec},
      {"load_peak_Bps", r.load.peak_bytes_per_node_per_sec},
  };
  if (r.faults.enabled) {
    // Fault metrics are only appended for fault-armed runs: the golden
    // gate requires every reported metric to exist in the baseline, so
    // faults-off results must keep exactly the legacy set.
    const auto& c = r.asap_counters;
    const double stale_hit_rate =
        c.confirm_requests > 0
            ? static_cast<double>(c.confirm_timeouts) /
                  static_cast<double>(c.confirm_requests)
            : 0.0;
    const double time_to_repair =
        c.repair_refetches > 0
            ? c.repair_seconds_sum / static_cast<double>(c.repair_refetches)
            : 0.0;
    out.emplace_back("success_rate_under_churn",
                     r.faults.success_rate_after_onset);
    out.emplace_back("queries_under_churn",
                     static_cast<double>(r.faults.queries_after_onset));
    out.emplace_back("stale_hit_rate", stale_hit_rate);
    out.emplace_back("stale_evictions",
                     static_cast<double>(c.stale_evictions));
    out.emplace_back("confirm_retries",
                     static_cast<double>(c.confirm_retries));
    out.emplace_back("retry_overhead_bytes",
                     static_cast<double>(c.retry_bytes));
    out.emplace_back("time_to_repair_s", time_to_repair);
    out.emplace_back("dead_sends", static_cast<double>(r.faults.dead_sends));
    out.emplace_back("fault_drops",
                     static_cast<double>(r.faults.link_drops +
                                         r.faults.burst_drops +
                                         r.faults.partition_drops));
    if (r.asap) {
      // Total advertisement traffic over the measurement window — the
      // ad-traffic-vs-success trade-off axis for the adaptive-scheduling
      // sweeps. Appended for every fault-armed ASAP run so vanilla and
      // adaptive variants are directly comparable in one artifact.
      out.emplace_back("ad_bytes_total",
                       static_cast<double>(r.ad_bytes_total));
    }
    if (r.faults.adversarial) {
      // Adversary/defense metrics: gated on the adversarial flag (not on
      // `enabled`) so churn-only fault artifacts keep their metric set.
      out.emplace_back("polluted_ads",
                       static_cast<double>(r.faults.polluted_ads));
      out.emplace_back("forced_negatives",
                       static_cast<double>(r.faults.forced_negatives));
      out.emplace_back("dropped_confirms",
                       static_cast<double>(r.faults.dropped_confirms));
      out.emplace_back("storm_queries",
                       static_cast<double>(r.faults.storm_queries));
      out.emplace_back("trust_strikes",
                       static_cast<double>(r.faults.trust_strikes));
      out.emplace_back("quarantines",
                       static_cast<double>(r.faults.quarantines));
      out.emplace_back("readmissions",
                       static_cast<double>(r.faults.readmissions));
      out.emplace_back("queries_shed",
                       static_cast<double>(r.faults.queries_shed));
      out.emplace_back("ttl_clamped",
                       static_cast<double>(r.faults.ttl_clamped));
      out.emplace_back("peak_pending_depth",
                       static_cast<double>(r.faults.peak_pending_depth));
    }
  }
  if (r.asap_counters.ad_rounds > 0) {
    // Adaptive-scheduler telemetry; only adaptive/delta runs execute ad
    // rounds, so legacy artifacts keep exactly the legacy metric set.
    out.emplace_back("ad_bytes_packed",
                     static_cast<double>(r.ad_bytes_packed));
    out.emplace_back("ad_rounds",
                     static_cast<double>(r.asap_counters.ad_rounds));
  }
  return out;
}

MatrixResult run_matrix(const MatrixSpec& spec) {
  ASAP_REQUIRE(!spec.topologies.empty(), "matrix: no topologies");
  ASAP_REQUIRE(!spec.algos.empty(), "matrix: no algorithms");
  ASAP_REQUIRE(!spec.fault_scenarios.empty(), "matrix: no fault scenarios");
  ASAP_REQUIRE(spec.trials >= 1, "matrix: trials must be >= 1");
  ASAP_REQUIRE(spec.options.seed_salt == 0,
               "matrix: seed_salt is derived per trial; set MatrixSpec::seed");
  ASAP_REQUIRE(spec.options.observer == nullptr ||
                   (spec.topologies.size() == 1 && spec.algos.size() == 1 &&
                    spec.fault_scenarios.size() == 1 && spec.trials == 1),
               "matrix: a trace observer serves exactly one run; restrict "
               "the matrix to a single (topology, scenario, algo, trial) "
               "cell");
  for (const auto& scen : spec.fault_scenarios) scen.config.validate();

  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t num_topos = spec.topologies.size();
  const std::size_t num_scens = spec.fault_scenarios.size();
  const std::size_t num_algos = spec.algos.size();
  const std::size_t trials = spec.trials;
  const std::size_t num_worlds = num_topos * trials;
  const std::size_t num_cells = num_worlds * num_scens * num_algos;

  std::mutex io_mu;
  const auto progress = [&](const std::string& line) {
    if (!spec.verbose) return;
    std::lock_guard lock(io_mu);
    std::cerr << line << '\n';
  };

  // One immutable World per (topology, trial); cells of that trial share
  // it read-only (run_experiment copies the overlay it mutates).
  const auto world_seed_of = [&](std::size_t trial) {
    return spec.seed ^ trial_seed_salt(static_cast<std::uint32_t>(trial));
  };
  const auto config_of = [&](TopologyKind topo, std::size_t trial) {
    auto cfg = ExperimentConfig::make(spec.preset, topo, world_seed_of(trial));
    if (spec.queries != 0) cfg.trace.num_queries = spec.queries;
    if (spec.scale != 0) cfg.apply_scale(spec.scale);
    if (spec.stream_trace) cfg.stream_trace = true;
    if (spec.tweak) spec.tweak(cfg);
    return cfg;
  };

  // jobs = 0 sizes the pool to the hardware, clamped to at least one
  // worker (ThreadPool's own auto-detect).
  ThreadPool pool(spec.jobs);
  std::vector<std::unique_ptr<const World>> worlds(num_worlds);
  std::vector<obs::PhaseProfile> world_profiles(num_worlds);
  pool.parallel_for(num_worlds, [&](std::size_t w) {
    const TopologyKind topo = spec.topologies[w / trials];
    const std::size_t trial = w % trials;
    obs::PhaseProfiler prof;
    prof.begin("world-build");
    worlds[w] = std::make_unique<const World>(
        build_world(config_of(topo, trial)));
    prof.end();
    world_profiles[w] = prof.phases().front();
    progress("[matrix] built " + std::string(topology_name(topo)) +
             " world, trial " + std::to_string(trial));
  });

  // Slot layout fixes the canonical order (topology, scenario, algorithm,
  // trial) regardless of which worker finishes when.
  MatrixResult out;
  out.spec = spec;
  out.trials.resize(num_cells);
  pool.parallel_for(num_cells, [&](std::size_t c) {
    const std::size_t topo_idx = c / (num_scens * num_algos * trials);
    const std::size_t scen_idx = (c / (num_algos * trials)) % num_scens;
    const std::size_t algo_idx = (c / trials) % num_algos;
    const std::size_t trial = c % trials;
    const AlgoKind algo = spec.algos[algo_idx];
    const faults::FaultScenario& scen = spec.fault_scenarios[scen_idx];

    TrialRun& slot = out.trials[c];
    slot.topology = spec.topologies[topo_idx];
    slot.algo = algo;
    slot.scenario = scen.name;
    slot.trial = static_cast<std::uint32_t>(trial);
    slot.world_seed = world_seed_of(trial);
    RunOptions opts =
        spec.options_for ? spec.options_for(algo) : spec.options;
    // An all-zero scenario ("none") leaves opts.faults unset so the run
    // arms no injector and stays bit-identical to a legacy matrix cell.
    if (scen.config.any()) {
      faults::FaultConfig fc = scen.config;
      if (spec.trust.has_value()) {
        if (*spec.trust) {
          fc.trust_enabled = true;
          fc.strike_per_chain = true;
          if (fc.trust_fill_gate <= 0.0) fc.trust_fill_gate = 0.65;
        } else {
          fc.trust_enabled = false;
          fc.strike_per_chain = false;
          fc.trust_fill_gate = 0.0;
          fc.pending_query_cap = 0;
          fc.ttl_clamp_depth = 0;
        }
      }
      opts.faults = fc;
    }
    slot.result =
        run_experiment(*worlds[topo_idx * trials + trial], algo, opts);
    // Each cell's profile leads with the (shared) world-build phase so a
    // single trial_runs entry tells the whole wall-clock story.
    slot.result.profile.insert(slot.result.profile.begin(),
                               world_profiles[topo_idx * trials + trial]);
    progress("[matrix] " + std::string(topology_name(slot.topology)) + " / " +
             scen.name + " / " + slot.result.algo + " trial " +
             std::to_string(trial) + " done, digest " +
             json::hex_u64(slot.result.digest));
  });

  // --- aggregate --------------------------------------------------------
  sim::Fnv64 matrix_digest;
  for (std::size_t t = 0; t < num_topos; ++t) {
    for (std::size_t s = 0; s < num_scens; ++s) {
      for (std::size_t a = 0; a < num_algos; ++a) {
        CellAggregate cell;
        cell.topology = spec.topologies[t];
        cell.algo = spec.algos[a];
        cell.scenario = spec.fault_scenarios[s].name;
        cell.trials = spec.trials;
        metrics::TrialAggregator agg;
        for (std::size_t k = 0; k < trials; ++k) {
          const TrialRun& run =
              out.trials[((t * num_scens + s) * num_algos + a) * trials + k];
          cell.digests.push_back(run.result.digest);
          matrix_digest.absorb(run.result.digest);
          for (const auto& [name, value] : headline_metrics(run.result)) {
            agg.add(name, value);
          }
        }
        cell.metrics = agg.summaries();
        out.cells.push_back(std::move(cell));
      }
    }
  }
  out.matrix_digest = matrix_digest.value();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return out;
}

// --- results.json ---------------------------------------------------------

namespace {

json::Value summary_to_json(const metrics::MetricSummary& s) {
  json::Object o;
  o.emplace_back("mean", s.mean);
  o.emplace_back("stddev", s.stddev);
  o.emplace_back("min", s.min);
  o.emplace_back("max", s.max);
  return json::Value(std::move(o));
}

}  // namespace

json::Value results_to_json(const MatrixResult& result) {
  const MatrixSpec& spec = result.spec;

  json::Object spec_obj;
  spec_obj.emplace_back("preset", preset_name(spec.preset));
  json::Array topos;
  for (const auto t : spec.topologies) topos.emplace_back(topology_name(t));
  spec_obj.emplace_back("topologies", std::move(topos));
  json::Array algos;
  for (const auto a : spec.algos) algos.emplace_back(algo_name(a));
  spec_obj.emplace_back("algos", std::move(algos));
  json::Array scens;
  for (const auto& s : spec.fault_scenarios) {
    scens.emplace_back(faults::scenario_to_json(s));
  }
  spec_obj.emplace_back("fault_scenarios", std::move(scens));
  spec_obj.emplace_back("seed", json::hex_u64(spec.seed));
  spec_obj.emplace_back("trials", static_cast<double>(spec.trials));
  spec_obj.emplace_back("queries", static_cast<double>(spec.queries));
  spec_obj.emplace_back("message_loss", spec.options.message_loss);
  spec_obj.emplace_back("audit", spec.options.audit);
  spec_obj.emplace_back("scale", static_cast<double>(spec.scale));
  spec_obj.emplace_back("stream_trace", spec.stream_trace);
  // Only recorded when the CLI override was given: absent = legacy file =
  // scenarios run with their own defense knobs.
  if (spec.trust.has_value()) {
    spec_obj.emplace_back("trust", *spec.trust ? "on" : "off");
  }

  json::Array cells;
  for (const auto& cell : result.cells) {
    json::Object c;
    c.emplace_back("topology", topology_name(cell.topology));
    c.emplace_back("faults", cell.scenario);
    c.emplace_back("algo", algo_name(cell.algo));
    c.emplace_back("trials", static_cast<double>(cell.trials));
    json::Array digests;
    for (const auto d : cell.digests) digests.emplace_back(json::hex_u64(d));
    c.emplace_back("digests", std::move(digests));
    json::Object ms;
    for (const auto& [name, summary] : cell.metrics) {
      ms.emplace_back(name, summary_to_json(summary));
    }
    c.emplace_back("metrics", std::move(ms));
    cells.emplace_back(std::move(c));
  }

  json::Array trial_runs;
  for (const auto& run : result.trials) {
    json::Object r;
    r.emplace_back("topology", topology_name(run.topology));
    r.emplace_back("faults", run.scenario);
    r.emplace_back("algo", algo_name(run.algo));
    r.emplace_back("trial", static_cast<double>(run.trial));
    r.emplace_back("world_seed", json::hex_u64(run.world_seed));
    r.emplace_back("digest", json::hex_u64(run.result.digest));
    r.emplace_back("engine_events",
                   static_cast<double>(run.result.engine_events));
    json::Object ms;
    for (const auto& [name, value] : headline_metrics(run.result)) {
      ms.emplace_back(name, value);
    }
    r.emplace_back("metrics", std::move(ms));
    if (run.result.faults.enabled) {
      const auto& f = run.result.faults;
      json::Object fs;
      fs.emplace_back("crashes", static_cast<double>(f.crashes));
      fs.emplace_back("partitions", static_cast<double>(f.partitions));
      fs.emplace_back("bursts", static_cast<double>(f.bursts));
      fs.emplace_back("link_drops", static_cast<double>(f.link_drops));
      fs.emplace_back("burst_drops", static_cast<double>(f.burst_drops));
      fs.emplace_back("partition_drops",
                      static_cast<double>(f.partition_drops));
      fs.emplace_back("dead_sends", static_cast<double>(f.dead_sends));
      fs.emplace_back("first_fault_time", f.first_fault_time);
      fs.emplace_back("queries_after_onset",
                      static_cast<double>(f.queries_after_onset));
      fs.emplace_back("successes_after_onset",
                      static_cast<double>(f.successes_after_onset));
      if (f.adversarial) {
        fs.emplace_back("adversarial", true);
        fs.emplace_back("polluters", static_cast<double>(f.polluters));
        fs.emplace_back("stale_advertisers",
                        static_cast<double>(f.stale_advertisers));
        fs.emplace_back("confirm_droppers",
                        static_cast<double>(f.confirm_droppers));
        fs.emplace_back("storms", static_cast<double>(f.storms));
        fs.emplace_back("storm_queries",
                        static_cast<double>(f.storm_queries));
        fs.emplace_back("polluted_ads",
                        static_cast<double>(f.polluted_ads));
        fs.emplace_back("forced_negatives",
                        static_cast<double>(f.forced_negatives));
        fs.emplace_back("dropped_confirms",
                        static_cast<double>(f.dropped_confirms));
        fs.emplace_back("trust_strikes",
                        static_cast<double>(f.trust_strikes));
        fs.emplace_back("quarantines", static_cast<double>(f.quarantines));
        fs.emplace_back("readmissions",
                        static_cast<double>(f.readmissions));
        fs.emplace_back("queries_shed",
                        static_cast<double>(f.queries_shed));
        fs.emplace_back("ttl_clamped", static_cast<double>(f.ttl_clamped));
        fs.emplace_back("peak_pending_depth",
                        static_cast<double>(f.peak_pending_depth));
      }
      r.emplace_back("fault_summary", std::move(fs));
    }
    // Wall-clock phase breakdown; informational only, like wall_seconds —
    // the golden gate never compares it.
    r.emplace_back("wall_seconds", run.result.wall_seconds);
    // Scale instrumentation (docs/RESULTS_SCHEMA.md): informational like
    // wall_seconds — never compared by the golden gate, and deliberately
    // not headline metrics (the gate pins that set).
    r.emplace_back("events_per_sec", run.result.events_per_sec);
    r.emplace_back("state_bytes",
                   static_cast<double>(run.result.state_bytes));
    r.emplace_back("peak_rss_bytes",
                   static_cast<double>(run.result.peak_rss_bytes));
    json::Array profile;
    for (const auto& p : run.result.profile) {
      profile.emplace_back(obs::phase_profile_to_json(p));
    }
    r.emplace_back("profile", std::move(profile));
    trial_runs.emplace_back(std::move(r));
  }

  json::Object doc;
  doc.emplace_back("schema", "asap-matrix-results/1");
  doc.emplace_back("spec", std::move(spec_obj));
  doc.emplace_back("matrix_digest", json::hex_u64(result.matrix_digest));
  // Informational only — never part of a golden comparison.
  doc.emplace_back("wall_seconds", result.wall_seconds);
  doc.emplace_back("cells", std::move(cells));
  doc.emplace_back("trial_runs", std::move(trial_runs));
  return json::Value(std::move(doc));
}

void write_results_json(const MatrixResult& result, std::ostream& os) {
  os << json::dump(results_to_json(result));
}

MatrixSpec spec_from_json(const json::Value& doc) {
  const json::Value& spec = doc.at("spec");
  MatrixSpec out;

  const auto preset = preset_from_name(spec.at("preset").as_string());
  ASAP_REQUIRE(preset.has_value(), "results spec: unknown preset");
  out.preset = *preset;

  out.topologies.clear();
  for (const auto& t : spec.at("topologies").as_array()) {
    const auto topo = topology_from_name(t.as_string());
    ASAP_REQUIRE(topo.has_value(), "results spec: unknown topology");
    out.topologies.push_back(*topo);
  }
  out.algos.clear();
  for (const auto& a : spec.at("algos").as_array()) {
    const auto algo = algo_from_name(a.as_string());
    ASAP_REQUIRE(algo.has_value(), "results spec: unknown algorithm");
    out.algos.push_back(*algo);
  }
  // Older results files predate the fault axis; absent means the default
  // single "none" scenario, so committed goldens keep round-tripping.
  if (const json::Value* scens = spec.find("fault_scenarios")) {
    out.fault_scenarios.clear();
    for (const auto& s : scens->as_array()) {
      out.fault_scenarios.push_back(faults::scenario_from_json(s));
    }
    ASAP_REQUIRE(!out.fault_scenarios.empty(),
                 "results spec: empty fault_scenarios");
  }
  out.seed = spec.at("seed").u64_hex();
  out.trials = static_cast<std::uint32_t>(spec.at("trials").as_double());
  out.queries = static_cast<std::uint32_t>(spec.at("queries").as_double());
  out.options.message_loss = spec.at("message_loss").as_double();
  out.options.audit = spec.at("audit").as_bool();
  // Files written while the engine had a shard axis carry "shards"; shard
  // counts never changed a digest, so the key is ignored.
  // Older results files predate the scale axis; absent means the preset's
  // own dimensions (scale = 0) with a materialized trace, exactly what
  // every pre-scale artifact ran with.
  if (const json::Value* scale = spec.find("scale")) {
    out.scale = static_cast<std::uint32_t>(scale->as_double());
  }
  if (const json::Value* stream = spec.find("stream_trace")) {
    out.stream_trace = stream->as_bool();
  }
  // Absent = legacy file = no defense override (tri-state stays unset).
  if (const json::Value* trust = spec.find("trust")) {
    const std::string& v = trust->as_string();
    ASAP_REQUIRE(v == "on" || v == "off",
                 "results spec: trust must be \"on\" or \"off\"");
    out.trust = (v == "on");
  }
  return out;
}

}  // namespace asap::harness
